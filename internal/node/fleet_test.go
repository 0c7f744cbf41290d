package node

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdht/internal/obs"
	"pdht/internal/transport"
)

// TestWireTraceCapturesServerSideFailover is the tentpole's end-to-end
// proof, over real TCP sockets: a 3-node r=2 cluster indexes a key, the
// key's primary is killed, and the next query's trace must show the
// failover from BOTH sides of the wire — the client-side probe that failed
// at the dead primary, and the backup's own server-side index-lookup hit,
// stitched into the same QueryTrace. The indexing query before the kill
// must likewise carry server-side legs from at least two distinct peers
// (the broadcast answerers and the replica inserts), proving spans
// propagate across the whole fan-out, not just the first hop.
func TestWireTraceCapturesServerSideFailover(t *testing.T) {
	var mu sync.Mutex
	var traces []obs.QueryTrace
	cfg := obsClusterConfig()
	cfg.Repl = 2
	cfg.TraceHook = func(qt obs.QueryTrace) {
		mu.Lock()
		traces = append(traces, qt)
		mu.Unlock()
	}
	c, err := NewCluster(transport.NewTCP(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const key = 8888
	c.PublishReplicated([]uint64{key}, 3)

	// Pick the querier outside the key's replica group, so its probe
	// sequence walks primary-first instead of short-circuiting at itself.
	querier, primary, backup := -1, "", ""
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		rs := n.ReplicaSet(key)
		if len(rs) > 0 && !slices.Contains(rs, c.Addr(i)) {
			querier, primary = i, rs[0]
			if len(rs) > 1 {
				backup = rs[1]
			}
			break
		}
	}
	if querier < 0 || backup == "" {
		t.Fatal("no node outside the replica group; enlarge the cluster")
	}

	// Index the key (miss → broadcast → insert at the replica set).
	mustQuery(t, c.Node(querier), key)

	mu.Lock()
	missTrace := traces[len(traces)-1]
	mu.Unlock()
	if got := distinctServerPeers(missTrace); len(got) < 2 {
		t.Errorf("indexing trace has server-side legs from %d peers %v, want ≥ 2;\n%s",
			len(got), got, missTrace.Timeline())
	}

	victim := -1
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == primary {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("primary %s is not a cluster member", primary)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Query immediately, before gossip evicts the dead primary: the probe
	// must fail at the primary and the backup must answer from its index.
	res := mustQuery(t, c.Node(querier), key)
	if !res.FromIndex {
		t.Fatalf("failover query did not hit the index: %+v", res)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, qt := range traces {
		if qt.Key != key || qt.Outcome != "hit" {
			continue
		}
		failedAtPrimary, serverHitAtBackup := false, false
		for _, leg := range qt.Legs {
			if leg.Name == "probe" && leg.Target == primary && leg.Outcome == "failed" {
				failedAtPrimary = true
			}
			if leg.Peer == backup && leg.Name == "index-lookup" && leg.Outcome == "hit" {
				serverHitAtBackup = true
			}
		}
		if failedAtPrimary && serverHitAtBackup {
			return // both sides of the failover are on one record
		}
	}
	for _, qt := range traces {
		t.Logf("trace:\n%s", qt.Timeline())
	}
	t.Fatal("no trace shows the failed probe at the primary AND the backup's server-side hit")
}

// distinctServerPeers collects the distinct peers that contributed
// server-side legs (legs stitched from Response.Spans carry Peer) to one
// trace.
func distinctServerPeers(qt obs.QueryTrace) []string {
	seen := make(map[string]bool)
	var out []string
	for _, leg := range qt.Legs {
		if leg.Peer != "" && !seen[leg.Peer] {
			seen[leg.Peer] = true
			out = append(out, leg.Peer)
		}
	}
	return out
}

// TestClusterReportMatchesNodeReports: the fleet aggregation must agree
// with the ground truth — the sum of every node's own Report. Queries and
// hits only move when the test queries, so they match exactly; the message
// counters also move with background gossip, so the fleet's msgs/query is
// bracketed between the sums taken before and after the poll.
func TestClusterReportMatchesNodeReports(t *testing.T) {
	tr := transport.NewMemory()
	c, err := NewCluster(tr, 3, obsClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{100, 101, 102, 103, 104}
	c.PublishReplicated(keys, 3)
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			mustQuery(t, c.Node(i%3), k)
		}
	}

	sumMsgs := func() float64 {
		var total float64
		for i := 0; i < c.Size(); i++ {
			for _, v := range c.Node(i).Report().Messages {
				total += float64(v)
			}
		}
		return total
	}

	var queries, hits uint64
	for i := 0; i < c.Size(); i++ {
		r := c.Node(i).Report()
		queries += r.Queries
		hits += r.Hits
	}
	msgsBefore := sumMsgs()
	fleet, err := c.Node(0).ClusterReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	msgsAfter := sumMsgs()

	if len(fleet.Peers) != 3 {
		t.Fatalf("fleet has %d rows, want 3: %+v", len(fleet.Peers), fleet.Peers)
	}
	if fleet.Queries != queries || fleet.Hits != hits {
		t.Errorf("fleet queries/hits = %d/%d, Σ Reports = %d/%d",
			fleet.Queries, fleet.Hits, queries, hits)
	}
	lo, hi := msgsBefore/float64(queries), msgsAfter/float64(queries)
	if fleet.MsgsPerQuery < lo || fleet.MsgsPerQuery > hi {
		t.Errorf("fleet msgs/query = %v, want within [%v, %v] (Σ messages / Σ queries)",
			fleet.MsgsPerQuery, lo, hi)
	}
	if fleet.HitRate <= 0 || fleet.P99 <= 0 {
		t.Errorf("fleet aggregates missing: hit rate %v, p99 %v", fleet.HitRate, fleet.P99)
	}

	// The client-only path sees the same fleet.
	rc, err := DialRemote(context.Background(), tr, RemoteConfig{Seeds: []string{c.Addr(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	remote, err := rc.ClusterReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Peers) != 3 {
		t.Fatalf("remote fleet has %d rows, want 3", len(remote.Peers))
	}
	if remote.Queries < fleet.Queries {
		t.Errorf("remote fleet queries = %d, want ≥ %d", remote.Queries, fleet.Queries)
	}
}

// TestTraceSamplingZeroStaysClientSide: with sampling 0 a traced query
// still produces its client-side record, but no RPC carries a trace ID, so
// no server-side legs appear.
func TestTraceSamplingZeroStaysClientSide(t *testing.T) {
	var mu sync.Mutex
	var traces []obs.QueryTrace
	cfg := obsClusterConfig()
	cfg.TraceSampling = 0
	cfg.TraceHook = func(qt obs.QueryTrace) {
		mu.Lock()
		traces = append(traces, qt)
		mu.Unlock()
	}
	c, err := NewCluster(transport.NewMemory(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustPublish(t, c.Node(1), 55, 550)
	mustQuery(t, c.Node(0), 55)
	mustQuery(t, c.Node(0), 55)

	mu.Lock()
	defer mu.Unlock()
	if len(traces) == 0 {
		t.Fatal("sampling 0 suppressed client-side traces entirely")
	}
	for _, qt := range traces {
		if len(qt.Legs) == 0 {
			t.Errorf("trace for key %d lost its client-side legs", qt.Key)
		}
		if peers := distinctServerPeers(qt); len(peers) != 0 {
			t.Errorf("sampling 0 leaked server-side legs from %v:\n%s", peers, qt.Timeline())
		}
	}
}

// TestSampleWireID pins the sampler's contract: rate 0 never samples,
// rate 1 always does (and never returns the on-the-wire "untraced" zero),
// and a middling rate samples roughly its share of a large sequence.
func TestSampleWireID(t *testing.T) {
	var seq atomic.Uint64
	for i := 0; i < 1000; i++ {
		if id := sampleWireID(&seq, 0); id != 0 {
			t.Fatalf("rate 0 sampled id %d", id)
		}
		if id := sampleWireID(&seq, 1); id == 0 {
			t.Fatal("rate 1 returned the untraced sentinel 0")
		}
	}
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if sampleWireID(&seq, 0.25) != 0 {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.20 || got > 0.30 {
		t.Errorf("rate 0.25 sampled %.3f of %d queries, want ≈ 0.25", got, n)
	}
}

// TestQueryHitPathAllocsUnchangedBySampling is the zero-overhead guard:
// without a trace hook or slow-query log no query owns a trace, so the
// sampling knob — whatever its value — must not change the hit path's
// allocation count by even one. AllocsPerRun reads process-wide mallocs,
// so each setting is measured several times and the minima compared,
// keeping background gossip ticks out of the verdict.
func TestQueryHitPathAllocsUnchangedBySampling(t *testing.T) {
	measure := func(sampling float64) float64 {
		cfg := DefaultConfig()
		cfg.RoundDuration = time.Second
		cfg.KeyTtl = 1 << 20
		cfg.GossipInterval = 10 * time.Millisecond
		cfg.TraceSampling = sampling
		c, err := NewCluster(transport.NewMemory(), 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.WaitConverged(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		const key = 424242
		mustPublish(t, c.Node(1), key, 7)
		if res := mustQuery(t, c.Node(0), key); !res.Answered {
			t.Fatal("warm-up query unanswered")
		}
		if res := mustQuery(t, c.Node(0), key); !res.FromIndex {
			t.Fatal("warm-up repeat did not hit the index")
		}
		ctx := context.Background()
		best := float64(1 << 30)
		for rep := 0; rep < 5; rep++ {
			allocs := testing.AllocsPerRun(50, func() {
				if res, err := c.Node(0).Query(ctx, key); err != nil || !res.FromIndex {
					t.Fatal("steady-state query missed the index")
				}
			})
			if allocs < best {
				best = allocs
			}
		}
		return best
	}
	off := measure(0)
	on := measure(1)
	if on != off {
		t.Errorf("hookless hit path allocates %.1f with sampling on vs %.1f with sampling off; the knob must be free without traces", on, off)
	}
	// And an absolute ceiling, as TestRemoteClientHitPathAllocs holds the
	// client's: 3 members, r=3, so the querier sits in the set and one of
	// the three legs of the search round stays in-process. 11 measured: the
	// round's deadline context (5) and memClient.Send's reply plumbing, 3
	// per remote leg (21 while the refreshes took a second round and the
	// replica set and the route's group were fresh slices, 33 while every
	// leg derived its own deadline context and ran on a goroutine of its
	// own, 40 while the engine also re-ranked the replica group per query).
	const ceiling = 11
	if off > ceiling {
		t.Errorf("member hit path allocates %.0f per query, want at most %d", off, ceiling)
	}
	t.Logf("member hit path: %.0f allocs/query", off)
}
