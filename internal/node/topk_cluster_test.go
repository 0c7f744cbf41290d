package node

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"pdht/internal/topk"
	"pdht/internal/transport"
)

// opCountingTransport wraps a transport and counts, at the wire level,
// every OpTopK call that actually left a client — the independent witness
// that early termination saves legs, not just the coordinator's own
// bookkeeping.
type opCountingTransport struct {
	transport.Transport
	topkCalls atomic.Int64
}

func (t *opCountingTransport) Dial(addr string) (transport.Client, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &opCountingClient{Client: c, n: &t.topkCalls}, nil
}

type opCountingClient struct {
	transport.Client
	n *atomic.Int64
}

func (c *opCountingClient) Send(ctx context.Context, req transport.Request) transport.Pending {
	if req.Op == transport.OpTopK {
		c.n.Add(1)
	}
	return c.Client.Send(ctx, req)
}

func (c *opCountingClient) Call(ctx context.Context, req transport.Request) (transport.Response, error) {
	return c.Send(ctx, req).Wait()
}

// topkCluster boots n nodes on a counting transport and converges them.
func topkCluster(tb testing.TB, n int) (*Cluster, *opCountingTransport) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Second
	cfg.KeyTtl = 1 << 20
	cfg.GossipInterval = 10 * time.Millisecond
	ct := &opCountingTransport{Transport: transport.NewMemory()}
	c, err := NewCluster(ct, n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		c.Close()
		tb.Fatal(err)
	}
	return c, ct
}

// publishDoc makes doc match every one of terms at the given cluster slot.
func publishDoc(tb testing.TB, c *Cluster, slot int, doc uint64, terms []uint64) {
	tb.Helper()
	for _, term := range terms {
		mustPublish(tb, c.Node(slot), term, doc)
	}
}

// The early-termination contract end to end: a warm coordinator answers a
// top-k query with the exact exhaustive-oracle result while issuing
// strictly fewer OpTopK wire legs than the full fan-out, with the saving
// visible both in the Result and at the transport.
func TestTopKEarlyTermination(t *testing.T) {
	c, ct := topkCluster(t, 6)
	defer c.Close()

	terms := []uint64{9001, 9002, 9003, 9004}
	// Two full-score documents, each replicated at two peers; the rest of
	// the cluster holds a partial match only. The oracle's top 2 is
	// therefore {100, 101}, both at the maximum score of 4.
	publishDoc(t, c, 0, 100, terms)
	publishDoc(t, c, 1, 100, terms)
	publishDoc(t, c, 2, 101, terms)
	publishDoc(t, c, 3, 101, terms)
	publishDoc(t, c, 4, 200, terms[:1])
	publishDoc(t, c, 5, 201, terms[:1])

	ctx := context.Background()
	coord := c.Node(0)

	// Warm-up: the first query may drain widely, but it must already be
	// exact — and it seeds the planner's yield history for the real run.
	warm, err := coord.QueryTopK(ctx, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, warm, []topk.Entry{{Doc: 100, Score: 4}, {Doc: 101, Score: 4}})

	ct.topkCalls.Store(0)
	res, err := coord.QueryTopK(ctx, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, res, []topk.Entry{{Doc: 100, Score: 4}, {Doc: 101, Score: 4}})

	exhaustive := int64(c.Size() - 1) // UniformPlan: every member but the coordinator
	if wire := ct.topkCalls.Load(); wire >= exhaustive {
		t.Fatalf("warm top-k paid %d wire legs, want fewer than the %d-leg fan-out", wire, exhaustive)
	}
	if int64(res.Legs) != ct.topkCalls.Load() {
		t.Fatalf("Result.Legs = %d, transport counted %d", res.Legs, ct.topkCalls.Load())
	}
	if !res.Early {
		t.Fatalf("warm top-k did not terminate early: %+v", res)
	}
	if res.Skipped == 0 {
		t.Fatalf("warm top-k probed every peer: %+v", res)
	}

	// The coordinator's own instruments saw both queries.
	if got := coord.m.topkQueries.Value(); got != 2 {
		t.Fatalf("pdht_topk_queries_total = %d, want 2", got)
	}
	if coord.m.topkLegs.Value() == 0 || coord.m.topkRounds.Value() == 0 {
		t.Fatal("topk legs/rounds counters never moved")
	}
	if coord.m.topkEarly.Value() == 0 {
		t.Fatal("pdht_topk_early_term_total never moved")
	}
	if coord.m.topkCandidates.Value() < 2 {
		t.Fatalf("pdht_topk_candidates = %d, want ≥ 2", coord.m.topkCandidates.Value())
	}
}

// Killing a holder of the best document mid-view must not lose the answer:
// the probe to the dead peer fails, the protocol treats it as empty, and
// the replica holding the same content supplies the full-score entry —
// failover inside a round, not an error.
func TestTopKKillPrimaryFailsOverToReplica(t *testing.T) {
	c, _ := topkCluster(t, 5)
	defer c.Close()

	terms := []uint64{7001, 7002, 7003}
	// Doc 100 replicated at slots 1 and 2; everything else partial.
	publishDoc(t, c, 1, 100, terms)
	publishDoc(t, c, 2, 100, terms)
	publishDoc(t, c, 3, 300, terms[:1])
	publishDoc(t, c, 4, 301, terms[:1])

	ctx := context.Background()
	coord := c.Node(0)
	warm, err := coord.QueryTopK(ctx, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, warm, []topk.Entry{{Doc: 100, Score: 3}})

	// Crash one holder without waiting for gossip to evict it: the
	// coordinator's view (and plan) still schedules the dead peer.
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	res, err := coord.QueryTopK(ctx, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, res, []topk.Entry{{Doc: 100, Score: 3}})
	// The dead peer may or may not have been scheduled before the bound
	// was met; when it was, it must be accounted as failed, not fatal.
	if res.Failed == 0 && res.Skipped == 0 {
		t.Fatalf("dead peer neither failed nor skipped: %+v", res)
	}
}

// An adaptive coordinator's top-k traffic must reach the control plane:
// the query's terms feed the count-min sketch (weighting future plans) and
// the leg count lands in the tuner's top-k window.
func TestQueryTopKFeedsTuner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Second
	cfg.KeyTtl = 1 << 20
	cfg.Adaptive = true
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	const term = 6123
	mustPublish(t, nd, term, 42)
	res, err := nd.QueryTopK(context.Background(), []uint64{term}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The query itself feeds the sketch before planning, so the term is
	// already weighted above uniform — the score is the weight, not 1.
	if len(res.Entries) != 1 || res.Entries[0].Doc != 42 || res.Entries[0].Score < 1 {
		t.Fatalf("top-k entries = %+v, want doc 42 at weighted score ≥ 1", res.Entries)
	}
	if nd.tuner.Count(term) == 0 {
		t.Fatal("top-k terms never reached the frequency sketch")
	}
	if w := nd.planner.Weights([]uint64{term}); len(w) != 1 || w[0] <= 1 {
		t.Fatalf("planner weights = %v, want the sketched term above uniform", w)
	}
}

// A non-member RemoteClient coordinates the same protocol over the wire:
// exact answer, every probe a wire leg, yield history learned across
// queries.
func TestRemoteClientQueryTopK(t *testing.T) {
	c, ct := topkCluster(t, 4)
	defer c.Close()

	terms := []uint64{5001, 5002}
	publishDoc(t, c, 0, 100, terms)
	publishDoc(t, c, 1, 100, terms)
	publishDoc(t, c, 2, 400, terms[:1])
	publishDoc(t, c, 3, 401, terms[:1])

	ctx := context.Background()
	cl, err := DialRemote(ctx, ct, RemoteConfig{Seeds: []string{c.Addr(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	warm, err := cl.QueryTopK(ctx, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, warm, []topk.Entry{{Doc: 100, Score: 2}})

	res, err := cl.QueryTopK(ctx, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertTopK(t, res, []topk.Entry{{Doc: 100, Score: 2}})
	// The client is not a member: no free self-scan, every probe pays.
	if res.Legs != res.Probed {
		t.Fatalf("client-coordinated legs = %d, probed = %d, want equal", res.Legs, res.Probed)
	}
}

// QueryTopK validates its arguments and honors cancellation.
func TestQueryTopKArgumentsAndCancel(t *testing.T) {
	nd, err := New(transport.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	ctx := context.Background()
	if _, err := nd.QueryTopK(ctx, []uint64{1}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := nd.QueryTopK(ctx, nil, 3); err == nil {
		t.Fatal("empty term set accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := nd.QueryTopK(canceled, []uint64{1}, 3); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// assertTopK compares a result's entries against the expected oracle list.
func assertTopK(tb testing.TB, res topk.Result, want []topk.Entry) {
	tb.Helper()
	if len(res.Entries) != len(want) {
		tb.Fatalf("top-k entries = %+v, want %+v", res.Entries, want)
	}
	for i := range want {
		if res.Entries[i] != want[i] {
			tb.Fatalf("top-k entries[%d] = %+v, want %+v", i, res.Entries[i], want[i])
		}
	}
}

// BenchmarkQueryTopK prices one coordinated top-k query (k=10 over a
// 6-peer corpus, memory transport, warm planner) — the baseline the
// adaptive planner's savings are measured against.
func BenchmarkQueryTopK(b *testing.B) {
	c, _ := topkCluster(b, 6)
	defer c.Close()

	terms := []uint64{8001, 8002, 8003, 8004}
	for slot := 0; slot < 6; slot++ {
		// Every slot holds a distinct full-score doc, so k=10 merges six
		// candidates and drains the cluster — the no-early-exit worst case.
		publishDoc(b, c, slot, uint64(1000+slot), terms)
	}
	ctx := context.Background()
	coord := c.Node(0)
	if _, err := coord.QueryTopK(ctx, terms, 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := coord.QueryTopK(ctx, terms, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Entries) == 0 {
			b.Fatal("benchmark query returned nothing")
		}
	}
}
