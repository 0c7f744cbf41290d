package node

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/transport"
)

// countingTransport wraps a transport and tallies outbound calls by
// destination and op — the instrument behind the one-request-per-peer
// assertion.
type countingTransport struct {
	inner transport.Transport
	// delay, when set, holds every Send that long before it goes out: a
	// slow link, on which a sequence of round trips shows as drift.
	delay time.Duration

	mu    sync.Mutex
	calls map[string]map[transport.Op]int
	items map[string]int // OpBatch items, by destination
}

func newCountingTransport(inner transport.Transport) *countingTransport {
	return &countingTransport{inner: inner, calls: make(map[string]map[transport.Op]int), items: make(map[string]int)}
}

func (t *countingTransport) Serve(addr string, h transport.Handler) (transport.Server, error) {
	return t.inner.Serve(addr, h)
}

func (t *countingTransport) Dial(addr string) (transport.Client, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingClient{t: t, addr: addr, inner: c}, nil
}

func (t *countingTransport) count(addr string, req transport.Request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.calls[addr]
	if m == nil {
		m = make(map[transport.Op]int)
		t.calls[addr] = m
	}
	m[req.Op]++
	t.items[addr] += len(req.Batch)
}

// snapshot returns the call tallies and resets them and the item tallies.
func (t *countingTransport) snapshot() map[string]map[transport.Op]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = make(map[string]map[transport.Op]int)
	t.items = make(map[string]int)
	return out
}

// batchItems returns the OpBatch items sent to each destination since the
// last snapshot.
func (t *countingTransport) batchItems() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.items)
}

type countingClient struct {
	t     *countingTransport
	addr  string
	inner transport.Client
}

func (c *countingClient) Send(ctx context.Context, req transport.Request) transport.Pending {
	c.t.count(c.addr, req)
	time.Sleep(c.t.delay)
	return c.inner.Send(ctx, req)
}

func (c *countingClient) Call(ctx context.Context, req transport.Request) (transport.Response, error) {
	return c.Send(ctx, req).Wait()
}

func (c *countingClient) Close() error { return c.inner.Close() }

// blackholeTransport wraps a transport; calls to the victim address, and to
// every address in victims, hang until the caller's context expires — a
// SYN-blackholed peer.
type blackholeTransport struct {
	inner   transport.Transport
	victim  string
	victims []string
}

func (t *blackholeTransport) Serve(addr string, h transport.Handler) (transport.Server, error) {
	return t.inner.Serve(addr, h)
}

func (t *blackholeTransport) Dial(addr string) (transport.Client, error) {
	if addr == t.victim || slices.Contains(t.victims, addr) {
		return blackholeClient{}, nil
	}
	return t.inner.Dial(addr)
}

type blackholeClient struct{}

func (blackholeClient) Send(ctx context.Context, req transport.Request) transport.Pending {
	return transport.Go(ctx, func() (transport.Response, error) {
		<-ctx.Done()
		return transport.Response{}, ctx.Err()
	})
}

func (c blackholeClient) Call(ctx context.Context, req transport.Request) (transport.Response, error) {
	return c.Send(ctx, req).Wait()
}

func (blackholeClient) Close() error { return nil }

// bootWithTransport builds a cluster where the node under test speaks
// through its own (wrapped) transport while the rest share the plain
// memory network. Returns the instrumented node and the full peer set.
func bootWithTransport(t *testing.T, mem *transport.Memory, nutTr transport.Transport, peers int, cfg Config) (nut *Node, others []*Node) {
	t.Helper()
	seedCfg := cfg
	seedCfg.Seeds = nil
	seed, err := New(mem, seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	others = []*Node{seed}
	cfg.Seeds = []string{seed.Addr()}
	for i := 1; i < peers; i++ {
		nd, err := New(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, nd)
	}
	nut, err = New(nutTr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), others...), nut)
	waitFor(t, 5*time.Second, func() bool {
		for _, nd := range all {
			if len(nd.Members()) != peers+1 {
				return false
			}
		}
		return true
	}, "full membership")
	return nut, others
}

// TestQueryManyOneRequestPerDestination is the batching acceptance
// criterion: a 32-key warm batch issues exactly one OpBatch request per
// destination peer — no unary index probes, no refresh messages, no
// broadcasts.
func TestQueryManyOneRequestPerDestination(t *testing.T) {
	mem := transport.NewMemory()
	ct := newCountingTransport(mem)
	nut, others := bootWithTransport(t, mem, ct, 3, testConfig())
	defer nut.Close()
	for _, nd := range others {
		defer nd.Close()
	}

	keys := make([]uint64, 32)
	ctx := context.Background()
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("batch-accept:" + strconv.Itoa(i)))
		mustPublish(t, others[i%len(others)], keys[i], uint64(i))
	}
	// Warm the index: every key resolves by broadcast and is inserted at
	// its replica group.
	warm, err := nut.QueryMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Answered {
			t.Fatalf("warm-up key %d unanswered", keys[i])
		}
	}

	ct.snapshot() // discard warm-up and membership traffic
	results, err := nut.QueryMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	destinations := make(map[string]bool)
	for i := range results {
		if !results[i].FromIndex {
			t.Fatalf("warm key %d = %+v, want index hit", keys[i], results[i])
		}
		if results[i].Responsible != nut.Addr() {
			destinations[results[i].Responsible] = true
		}
	}
	if len(destinations) == 0 {
		t.Fatal("every key landed on the caller; the assertion is vacuous")
	}
	// Every destination sees only OpBatch traffic: one query round trip
	// (the grouping under test), plus at most one batched reset-on-hit
	// refresh round trip for the keys it backs up — the replica-coherence
	// traffic rides OpBatch too, never unary RPCs. The warm-up wrote every
	// replica, so no read-repair batch follows.
	calls := ct.snapshot()
	for addr, ops := range calls {
		for op, n := range ops {
			if op == transport.OpGossip {
				continue // background membership traffic is not the query path
			}
			if op != transport.OpBatch {
				t.Fatalf("destination %s saw %d %v requests, want OpBatch only", addr, n, op)
			}
			if n > 2 {
				t.Fatalf("destination %s saw %d OpBatch requests, want 1 query + at most 1 refresh", addr, n)
			}
		}
	}
	for addr := range destinations {
		if n := calls[addr][transport.OpBatch]; n < 1 || n > 2 {
			t.Fatalf("destination %s saw %d OpBatch requests, want 1 query + at most 1 refresh", addr, n)
		}
	}
}

// TestQueryManyPartialResults drives the per-key contract: in one batch, a
// warm key hits the index, a published-but-unindexed key falls back to the
// broadcast, and an unpublished key comes back unanswered — with no error
// and no cross-contamination.
func TestQueryManyPartialResults(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const warmKey, coldKey, ghostKey = 1111, 2222, 3333
	mustPublish(t, c.Node(1), warmKey, 10)
	mustPublish(t, c.Node(2), coldKey, 20)
	if res := mustQuery(t, c.Node(0), warmKey); !res.Answered {
		t.Fatal("warm-up query unanswered")
	}

	results, err := c.Node(0).QueryMany(ctx, []uint64{warmKey, coldKey, ghostKey})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Answered || !results[0].FromIndex || results[0].Value != 10 {
		t.Fatalf("warm key = %+v, want index hit 10", results[0])
	}
	if !results[1].Answered || results[1].FromIndex || results[1].Value != 20 {
		t.Fatalf("cold key = %+v, want broadcast answer 20", results[1])
	}
	if results[2].Answered {
		t.Fatalf("ghost key = %+v, want unanswered", results[2])
	}

	// The fallback's insert leg must have indexed the cold key: a repeat
	// batch serves both real keys from the index.
	again, err := c.Node(0).QueryMany(ctx, []uint64{warmKey, coldKey})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if !res.FromIndex {
			t.Fatalf("repeat batch key %d = %+v, want index hit", i, res)
		}
	}
}

// TestQueryManyFeedsTuner asserts the control plane sees the true stream:
// a 32-key batch lands as 32 individual observations, not one.
func TestQueryManyFeedsTuner(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive = true
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if _, err := nd.QueryMany(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if got := nd.Tuner().Snapshot().Observed; got != 32 {
		t.Fatalf("tuner observed %d queries for a 32-key batch, want 32", got)
	}
}

// TestQueryCancellationAbortsBroadcast is the cancellation acceptance
// criterion: with one member blackholed, a query for an unresolvable key
// blocks in the broadcast leg; cancelling the context aborts the in-flight
// legs and surfaces context.Canceled, a deadline surfaces ErrTimeout (and
// errors.Is(…, context.DeadlineExceeded) still holds). Both must return
// long before CallTimeout.
func TestQueryCancellationAbortsBroadcast(t *testing.T) {
	mem := transport.NewMemory()
	cfg := testConfig()
	cfg.CallTimeout = 30 * time.Second    // the caller's ctx must win, not this
	cfg.GossipInterval = 10 * time.Minute // no probing: the blackhole must stay in the view
	cfg.SuspicionTimeout = time.Hour
	cfg.SyncInterval = time.Hour

	seed, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joinCfg := cfg
	joinCfg.Seeds = []string{seed.Addr()}
	victim, err := New(mem, joinCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	nut, err := New(&blackholeTransport{inner: mem, victim: victim.Addr()}, joinCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nut.Close()
	waitFor(t, 5*time.Second, func() bool { return len(nut.Members()) == 3 }, "membership at the node under test")

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := nut.Query(ctx, 987654) // published nowhere
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("cancelled query returned after %v; in-flight legs were not aborted", waited)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := nut.Query(ctx, 987655)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("expired query: err = %v, want ErrTimeout", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ErrTimeout must wrap context.DeadlineExceeded, got %v", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("expired query returned after %v; in-flight legs were not aborted", waited)
		}
	})

	t.Run("batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		_, err := nut.QueryMany(ctx, []uint64{987656, 987657})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
		}
	})
}

// TestQueryAfterCloseFailsTyped pins the error taxonomy on the lifecycle
// edge: a closed node refuses queries and publishes with ErrClosed.
func TestQueryAfterCloseFailsTyped(t *testing.T) {
	nd, err := New(transport.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	nd.Close()
	if _, err := nd.Query(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: err = %v, want ErrClosed", err)
	}
	if err := nd.Publish(context.Background(), 1, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after Close: err = %v, want ErrClosed", err)
	}
	if _, err := nd.QueryMany(context.Background(), []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueryMany after Close: err = %v, want ErrClosed", err)
	}
}

// TestFanoutDeadlineDoesNotStack pins that a round collects its replies one
// after another under one shared deadline: with two of a key's three
// replicas blackholed, a hit's search round and a miss's insert round each
// hold the caller for one CallTimeout, not one per dead member — and still
// spend their three messages.
func TestFanoutDeadlineDoesNotStack(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	mem := transport.NewMemory()
	cfg := testConfig()
	cfg.KeyTtl = 1 << 20
	cfg.GossipInterval = 10 * time.Millisecond
	c, err := NewCluster(mem, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	healthy := c.Addr(0)
	bt := &blackholeTransport{inner: mem}
	client, err := DialRemote(ctx, bt, RemoteConfig{Seeds: []string{healthy}, KeyTtl: cfg.KeyTtl, CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A key whose primary stays healthy, so the probe answers at once and
	// only the backups' refresh legs meet the dead members.
	v := client.view.Load()
	var key uint64
	for i := uint64(1); v.Replicas(keyspace.Key(key))[0] != healthy; i++ {
		key = mix64(i) // spread over the ring
	}
	set := v.Replicas(keyspace.Key(key))
	if len(set) != 3 {
		t.Fatalf("replica set %v, want 3 members", set)
	}
	bt.victims = set[1:] // nothing has dialed them yet
	toPrimary, err := mem.Dial(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := toPrimary.Call(ctx, transport.Request{Op: transport.OpInsert, Key: key, Value: 7, TTL: cfg.KeyTtl}); err != nil || !resp.OK {
		t.Fatalf("seeding the primary: %+v, %v", resp, err)
	}

	start := time.Now()
	res, err := client.Query(ctx, key)
	took := time.Since(start)
	if err != nil || !res.FromIndex {
		t.Fatalf("hit = %+v, %v; want an index hit at the primary", res, err)
	}
	if res.RefreshMsgs != 2 {
		t.Errorf("hit spent %d refresh messages, want 2: the backups' (the primary's rode the probe)", res.RefreshMsgs)
	}
	if took >= 2*callTimeout {
		t.Errorf("hit with two dead replicas took %v, want < %v: the refresh legs' deadlines stacked", took, 2*callTimeout)
	}

	start = time.Now()
	msgs := client.insert(ctx, v, keyspace.Key(mix64(key)), 8)
	took = time.Since(start)
	if msgs != 3 {
		t.Errorf("insert spent %d messages, want 3", msgs)
	}
	if took >= 2*callTimeout {
		t.Errorf("insert with two dead replicas took %v, want < %v: the insert legs' deadlines stacked", took, 2*callTimeout)
	}
}

// TestFanoutKeepsRepliesBehindADeadLeg pins that a round collecting its
// legs in address order keeps every reply that arrived while it waited out
// an earlier, blackholed leg: with the member that sorts first dead, a
// broadcast still finds the key a later member holds, and a PublishMany
// still counts the pairs the two live replicas stored.
func TestFanoutKeepsRepliesBehindADeadLeg(t *testing.T) {
	const callTimeout = 30 * time.Millisecond
	mem := transport.NewMemory()
	cfg := testConfig()
	cfg.KeyTtl = 1 << 20
	cfg.GossipInterval = 10 * time.Millisecond
	c, err := NewCluster(mem, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	addrs := []string{c.Addr(0), c.Addr(1), c.Addr(2)}
	slices.Sort(addrs)
	dead, holder := addrs[0], addrs[2]
	var holderNode *Node
	for i := range 3 {
		if c.Addr(i) == holder {
			holderNode = c.Node(i)
		}
	}
	ctx := context.Background()
	bt := &blackholeTransport{inner: mem, victim: dead}
	client, err := DialRemote(ctx, bt, RemoteConfig{Seeds: []string{holder}, KeyTtl: cfg.KeyTtl, CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Each key is a miss whose broadcast waits out the dead member first;
	// a reply lost to that wait half the time would show within a few.
	for i := range uint64(8) {
		key := 1000 + i
		if err := holderNode.Publish(ctx, key, key*3); err != nil {
			t.Fatal(err)
		}
		res, err := client.Query(ctx, key)
		if err != nil || !res.Answered || res.FromIndex || res.Value != key*3 || res.AnsweredBy != holder {
			t.Fatalf("broadcast %d = %+v, %v; want the value %d answered by %s", i, res, err, key*3, holder)
		}
	}
	for i := range uint64(8) {
		key := 2000 + i
		if err := client.PublishMany(ctx, []KV{{Key: key, Value: key}}); err != nil {
			t.Fatalf("PublishMany %d with one of three replicas dead: %v", i, err)
		}
	}
}

// TestTracedRefreshLegsEndWhenCollected pins the search round's trace: a
// leg ends when the round collects it, not when the whole round is done, so
// the healthy primary's leg stays short beside a blackholed backup's; and a
// leg the round never issued, because the caller had already given up,
// records nothing and costs nothing.
func TestTracedRefreshLegsEndWhenCollected(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	mem := transport.NewMemory()
	cfg := testConfig()
	cfg.KeyTtl = 1 << 20
	cfg.GossipInterval = 10 * time.Millisecond
	c, err := NewCluster(mem, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	healthy := c.Addr(0)
	bt := &blackholeTransport{inner: mem}
	client, err := DialRemote(ctx, bt, RemoteConfig{Seeds: []string{healthy}, KeyTtl: cfg.KeyTtl, CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	v := client.view.Load()
	var key uint64
	for i := uint64(1); v.Replicas(keyspace.Key(key))[0] != healthy; i++ {
		key = mix64(i)
	}
	set := v.Replicas(keyspace.Key(key))
	bt.victim = set[1] // nothing has dialed it yet
	rawInsert(t, mem, healthy, key, 7, cfg.KeyTtl)

	tr := obs.NewTrace(key)
	results := make([]QueryResult, 1)
	if _, err := client.search(obs.WithTrace(ctx, tr), v, []uint64{key}, results, nil); err != nil || !results[0].FromIndex {
		t.Fatalf("search = %+v, %v; want a hit at the primary", results[0], err)
	}
	legs := tr.Finish("hit").Legs
	refresh := map[string]obs.Leg{}
	for _, l := range legs {
		if l.Name == "refresh" {
			refresh[l.Target] = l
		}
	}
	if len(refresh) != 3 {
		t.Fatalf("refresh legs %+v, want one per member of %v", legs, set)
	}
	if d := refresh[set[0]].Duration; d >= callTimeout/2 {
		t.Errorf("healthy primary's refresh leg lasted %v, want < %v: it ended with the round, not when collected", d, callTimeout/2)
	}
	if l := refresh[set[1]]; l.Outcome != "failed" || l.Duration < callTimeout/2 {
		t.Errorf("blackholed member's refresh leg = %+v, want failed after about %v", l, callTimeout)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	tr = obs.NewTrace(key)
	results = make([]QueryResult, 1)
	client.search(obs.WithTrace(cancelled, tr), v, []uint64{key}, results, nil)
	if msgs := results[0].Total(); msgs != 0 {
		t.Errorf("a cancelled search round cost %d messages, want 0", msgs)
	}
	if legs := tr.Finish("error").Legs; len(legs) != 0 {
		t.Errorf("a cancelled search round recorded legs it never sent: %+v", legs)
	}
}

// TestQueryManyWarmBatchIsOneRound pins the one-round batch: a warm 32-key
// QueryMany over five members asks every key's primary and refreshes its
// backups in the same request, so each remote destination sees exactly one
// OpBatch and nothing else — no second refresh round, no unary legs.
func TestQueryManyWarmBatchIsOneRound(t *testing.T) {
	mem := transport.NewMemory()
	ct := newCountingTransport(mem)
	cfg := testConfig()
	cfg.KeyTtl = 1 << 20 // nothing expires between the warm-up and the batch
	nut, others := bootWithTransport(t, mem, ct, 4, cfg)
	defer nut.Close()
	for _, nd := range others {
		defer nd.Close()
	}

	ctx := context.Background()
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("one-round:" + strconv.Itoa(i)))
		mustPublish(t, others[i%len(others)], keys[i], uint64(i))
	}
	if _, err := nut.QueryMany(ctx, keys); err != nil {
		t.Fatal(err)
	}

	ct.snapshot() // discard warm-up and membership traffic
	results, err := nut.QueryMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	remote := make(map[string]bool) // every member of a set but the caller
	for i := range results {
		if !results[i].FromIndex || results[i].RepairMsgs != 0 {
			t.Fatalf("warm key %d = %+v, want an index hit and nothing to repair", keys[i], results[i])
		}
		for _, addr := range nut.ReplicaSet(keys[i]) {
			if addr != nut.Addr() {
				remote[addr] = true
			}
		}
	}
	calls := ct.snapshot()
	for addr, ops := range calls {
		for op, n := range ops {
			if op == transport.OpGossip {
				continue // background membership traffic is not the query path
			}
			if op != transport.OpBatch || n != 1 || !remote[addr] {
				t.Errorf("destination %s saw %d %v requests, want one OpBatch per set member", addr, n, op)
			}
		}
	}
	for addr := range remote {
		if calls[addr][transport.OpBatch] != 1 {
			t.Errorf("set member %s saw %d OpBatch requests, want 1", addr, calls[addr][transport.OpBatch])
		}
	}
}

// TestQueryHitIsOneRound pins the unary search: a warm hit, from a member
// and from a RemoteClient, sends each remote member of the key's replica
// set exactly one request — the probe, carrying keyTtl, to the primary and
// a refresh to each backup — and nothing else: no second refresh round,
// no one-item OpBatch — and reports one refresh message per remote backup.
func TestQueryHitIsOneRound(t *testing.T) {
	mem := transport.NewMemory()
	ct := newCountingTransport(mem)
	cfg := testConfig()
	cfg.Repl = 3
	cfg.KeyTtl = 1 << 20 // nothing expires between the warm-up and the hit
	nut, others := bootWithTransport(t, mem, ct, 4, cfg)
	defer nut.Close()
	for _, nd := range others {
		defer nd.Close()
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, ct, RemoteConfig{Seeds: []string{others[0].Addr()}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, h := range []struct {
		name  string
		self  string
		query func(context.Context, uint64) (QueryResult, error)
	}{{"member", nut.Addr(), nut.Query}, {"client", "", client.Query}} {
		for i := range 8 {
			key := uint64(keyspace.HashString("one-round-hit:" + h.name + ":" + strconv.Itoa(i)))
			mustPublish(t, others[i%len(others)], key, uint64(i))
			if res, err := h.query(ctx, key); err != nil || !res.Answered {
				t.Fatalf("%s: warm-up of key %d = %+v, %v", h.name, key, res, err)
			}
			ct.snapshot() // discard the warm-up and membership traffic
			res, err := h.query(ctx, key)
			if err != nil || !res.FromIndex || res.RepairMsgs != 0 {
				t.Fatalf("%s: warm key %d = %+v, %v; want an index hit and nothing to repair", h.name, key, res, err)
			}
			set := nut.ReplicaSet(key)
			want := make(map[string]transport.Op) // every remote member's one request
			for j, addr := range set {
				switch {
				case addr == h.self:
				case j == 0:
					want[addr] = transport.OpQuery
				default:
					want[addr] = transport.OpRefresh
				}
			}
			sent := 0
			for addr, ops := range ct.snapshot() {
				for op, n := range ops {
					if op == transport.OpGossip {
						continue // background membership traffic is not the query path
					}
					sent += n
					if w, ok := want[addr]; !ok || op != w || n != 1 {
						t.Errorf("%s: key %d: %s saw %d %v requests, want one %v (set %v)", h.name, key, addr, n, op, want[addr], set)
					}
				}
			}
			refreshes := len(want)
			if _, ok := want[set[0]]; ok {
				refreshes--
			}
			if sent != len(want) || res.RefreshMsgs != refreshes {
				t.Errorf("%s: key %d: %d requests sent and %d refresh messages reported, want %d and %d (set %v)",
					h.name, key, sent, res.RefreshMsgs, len(want), refreshes, set)
			}
		}
	}
}

// TestQueryManyCostsNoMoreThanUnary pins what one round costs against the
// unary path, key by key, with twin keys sharing one replica set: a cold key
// costs exactly what Query pays, class by class — the backups' refresh legs
// stand in for the failover probes, which are not repeated — and a key whose
// primary lost its entry is fetched from the first backup holding it, the
// primary is read-repaired, and the batch pays less than Query does; and a
// cold key whose primary is dead costs what Query pays too — the batch does
// not ask the dead primary again.
func TestQueryManyCostsNoMoreThanUnary(t *testing.T) {
	t.Run("memory", func(t *testing.T) { queryManyCostsNoMoreThanUnary(t, transport.NewMemory()) })
	t.Run("tcp", func(t *testing.T) { queryManyCostsNoMoreThanUnary(t, transport.NewTCP()) })
}

func queryManyCostsNoMoreThanUnary(t *testing.T, tr transport.Transport) {
	cfg := engineConfig()
	c, err := NewCluster(tr, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	nodeAt := func(addr string) *Node {
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == addr {
				return c.Node(i)
			}
		}
		t.Fatalf("no member at %s", addr)
		return nil
	}
	// twins returns two keys with the same ordered three-member set: one
	// for Query, one for QueryMany.
	serial := 0
	twins := func() (keys [2]uint64, rs []string) {
		t.Helper()
		seen := make(map[string]uint64)
		for ; serial < 100000; serial++ {
			k := uint64(keyspace.HashString("batch-cost:" + strconv.Itoa(serial)))
			s := c.Node(0).ReplicaSet(k)
			id := strings.Join(s, "|")
			if first, ok := seen[id]; ok && len(s) == 3 {
				serial++
				return [2]uint64{first, k}, s
			}
			seen[id] = k
		}
		t.Fatal("no twin keys found")
		return
	}
	both := func(keys [2]uint64) (unary, batched QueryResult) {
		t.Helper()
		unary, err := client.Query(ctx, keys[0])
		if err != nil {
			t.Fatal(err)
		}
		many, err := client.QueryMany(ctx, keys[1:])
		if err != nil {
			t.Fatal(err)
		}
		return unary, many[0]
	}
	// classes is a result's cost as the message classes file it.
	type classes struct{ lookup, flood, broadcast, update int }
	classesOf := func(r QueryResult) classes {
		return classes{r.IndexMsgs - r.failoverMsgs, r.failoverMsgs, r.BroadcastMsgs, r.InsertMsgs + r.RefreshMsgs + r.RepairMsgs}
	}

	t.Run("cold key", func(t *testing.T) {
		keys, rs := twins()
		holder := nodeAt(rs[2])
		for _, k := range keys {
			mustPublish(t, holder, k, 41)
		}
		u, b := both(keys)
		if !u.Answered || u.FromIndex || !b.Answered || b.FromIndex || b.Value != 41 || b.AnsweredBy != rs[2] {
			t.Fatalf("unary %+v batched %+v, want both answered by the broadcast from %s", u, b, rs[2])
		}
		if classesOf(u) != classesOf(b) || u.Total() != b.Total() {
			t.Errorf("a cold key costs %+v (%d) under QueryMany, %+v (%d) under Query; want the same",
				classesOf(b), b.Total(), classesOf(u), u.Total())
		}
	})
	t.Run("primary lost its entry", func(t *testing.T) {
		keys, rs := twins()
		for _, k := range keys {
			rawInsert(t, tr, rs[1], k, 42, cfg.KeyTtl)
			rawInsert(t, tr, rs[2], k, 42, cfg.KeyTtl)
		}
		u, b := both(keys)
		if !b.FromIndex || b.Value != 42 || b.AnsweredBy != rs[1] {
			t.Fatalf("batched %+v, want the value from the first backup %s", b, rs[1])
		}
		// The route, the fetch from the backup, two refresh items, the
		// primary's repair: one message less than Query's route, failover
		// probe, three refresh legs and repair.
		if b.IndexMsgs != 2 || b.failoverMsgs != 1 || b.RefreshMsgs != 2 || b.RepairMsgs != 1 {
			t.Errorf("batched %+v, want 2 index (1 failover), 2 refresh and 1 repair messages", b)
		}
		if b.Total() > u.Total() {
			t.Errorf("the batched key cost %d messages, the unary twin %d", b.Total(), u.Total())
		}
		primary := nodeAt(rs[0])
		for _, k := range keys {
			if _, ok := remainingTTL(primary, k); !ok {
				t.Errorf("key %d was not read-repaired at the primary %s", k, rs[0])
			}
		}
	})
	// Last: it kills a member for good.
	t.Run("cold key, dead primary", func(t *testing.T) {
		keys, rs := twins()
		holder := nodeAt(rs[2])
		for _, k := range keys {
			mustPublish(t, holder, k, 43)
		}
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == rs[0] {
				if err := c.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		u, b := both(keys)
		if !u.Answered || !b.Answered || b.FromIndex || b.Value != 43 {
			t.Fatalf("unary %+v batched %+v, want both answered by the broadcast", u, b)
		}
		if classesOf(u) != classesOf(b) || u.Total() != b.Total() {
			t.Errorf("a cold key with a dead primary costs %+v (%d) under QueryMany, %+v (%d) under Query; want the same",
				classesOf(b), b.Total(), classesOf(u), u.Total())
		}
	})
}

// TestQueryManyWarmBatchAllocs is the allocation gate of the batched hit
// path, as TestQueryHitPathAllocsUnchangedBySampling is the unary one's: a
// warm 32-key QueryMany from a member of a 3-member memory cluster.
// AllocsPerRun reads process-wide mallocs, so the minimum of several
// measurements keeps background gossip ticks out of the verdict.
func TestQueryManyWarmBatchAllocs(t *testing.T) {
	// 46 measured: one round of a query item per key at its primary and a
	// refresh item per backup, the replica sets end to end in one slice
	// (115 while each key's set and route group were slices of their own,
	// 152 while the backups' refreshes took a second round).
	const ceiling = 46
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Second
	cfg.KeyTtl = 1 << 20
	// A gossip tick allocates too; one every 100 ms keeps the ticks out of
	// most measurements even when the batch runs slowly under -race.
	cfg.GossipInterval = 100 * time.Millisecond
	c, err := NewCluster(transport.NewMemory(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("batch-allocs:" + strconv.Itoa(i)))
		mustPublish(t, c.Node(1), keys[i], uint64(i))
	}
	if _, err := c.Node(0).QueryMany(ctx, keys); err != nil {
		t.Fatal(err)
	}
	best := float64(1 << 30)
	for rep := 0; rep < 5; rep++ {
		allocs := testing.AllocsPerRun(20, func() {
			results, err := c.Node(0).QueryMany(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range results {
				if !results[i].FromIndex {
					t.Fatalf("warm key %d missed the index", keys[i])
				}
			}
		})
		best = min(best, allocs)
	}
	if best > ceiling {
		t.Errorf("warm 32-key batch allocates %.0f, want at most %d", best, ceiling)
	}
	t.Logf("warm 32-key batch: %.0f allocs", best)
}
