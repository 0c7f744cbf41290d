package node

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
	"pdht/internal/zipf"
)

// TestClusterZipfWorkloadWithChurn is the cluster-path integration test:
// six nodes on the in-memory transport, a Zipf-skewed workload over a
// replicated corpus, one node crashed mid-workload and later restarted,
// with the selection algorithm's end-to-end behavior asserted at each
// phase — miss → broadcast → insert → subsequent hit; gossip convergence
// within a bounded number of protocol periods after the crash (dead peer
// evicted from every live view, no coordinator); key handoff on the view
// changes; hit-rate recovery to within tolerance of the pre-kill SolveTTL
// prediction after the restart; and TTL expiry of unqueried keys at the
// end.
func TestClusterZipfWorkloadWithChurn(t *testing.T) {
	const (
		nodes = 6
		keys  = 150
	)
	cfg := DefaultConfig()
	cfg.RoundDuration = 50 * time.Millisecond
	cfg.KeyTtl = 10 // 500ms of lifetime
	cfg.Repl = 3
	cfg.Capacity = 4 * keys
	cfg.GossipInterval = 25 * time.Millisecond
	cfg.SuspicionTimeout = 100 * time.Millisecond
	cfg.SyncInterval = 50 * time.Millisecond
	// The convergence budget, in protocol periods: detection (a few
	// probes) + suspicion + dissemination. Generous enough that only a
	// protocol bug can miss it, bounded enough to mean something.
	bound := 100*cfg.GossipInterval + 2*cfg.SuspicionTimeout

	c, err := NewCluster(transport.NewMemory(), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(bound); err != nil {
		t.Fatal(err)
	}

	// A corpus of hashed keys, each replicated at 3 content stores so a
	// single crash cannot orphan content.
	corpus := make([]uint64, keys)
	for i := range corpus {
		corpus[i] = uint64(keyspace.HashString("article:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(corpus, 3)

	// Phase 1: Zipf workload from all live nodes. The skew makes head
	// keys repeat heavily; repeats inside keyTtl must hit the index.
	dist, err := zipf.New(1.2, keys)
	if err != nil {
		t.Fatal(err)
	}
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(7, 11)))
	rng := rand.New(rand.NewPCG(1, 2))
	answered, fromIndex := 0, 0
	for q := 0; q < 600; q++ {
		res := mustQuery(t, c.Node(rng.IntN(nodes)), corpus[sampler.Sample()])
		if res.Answered {
			answered++
		}
		if res.FromIndex {
			fromIndex++
		}
	}
	if answered != 600 {
		t.Fatalf("phase 1: %d/600 queries answered; replicated content must always resolve", answered)
	}
	// With α=1.2 over 150 keys, well over half the queries are repeats of
	// the head; almost all of those land within keyTtl. Require a
	// conservative floor so scheduler jitter cannot flake the test.
	if fromIndex < 200 {
		t.Fatalf("phase 1: only %d/600 queries hit the index", fromIndex)
	}
	// The pre-kill operating point: SolveTTL's prediction fitted to the
	// observed workload, the yardstick recovery is measured against.
	// The fit needs at least one elapsed round for a finite fQry.
	waitFor(t, 5*time.Second, func() bool { return c.Node(0).Report().Rounds >= 1 }, "round clock to advance")
	pre := c.Node(0).Report()
	if pre.Model == nil {
		t.Fatalf("node 0 report lacks the SolveTTL comparison before the kill: %+v", pre)
	}

	// Phase 2: crash a node mid-workload (not the seed). The gossip
	// layer must converge — dead peer suspected, confirmed, and evicted
	// from every live view — within the protocol-period bound, with no
	// coordinator involved. Queries keep being answered throughout.
	const victim = 3
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()
	for q := 0; q < 200; q++ {
		from := rng.IntN(nodes)
		if from == victim {
			from = (victim + 1) % nodes
		}
		res := mustQuery(t, c.Node(from), corpus[sampler.Sample()])
		if !res.Answered {
			t.Fatalf("phase 2: query %d unanswered during churn", q)
		}
	}
	if err := c.WaitConverged(bound - time.Since(killed)); err != nil {
		t.Fatalf("phase 2: dead peer not evicted within %v: %v", bound, err)
	}
	// The view change moved replica groups, so the survivors must have
	// handed off the affected entries.
	var handoffMsgs uint64
	for i := 0; i < nodes; i++ {
		if i != victim {
			handoffMsgs += c.Node(i).Report().HandoffMsgs
		}
	}
	if handoffMsgs == 0 {
		t.Fatal("phase 2: no node pushed a handoff after the view change")
	}

	// Phase 3: restart the victim. It rejoins through a live member,
	// refutes its own death with a higher incarnation, and every view
	// readopts it — again within the bound.
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(bound); err != nil {
		t.Fatalf("phase 3: restarted node not readopted: %v", err)
	}
	for q := 0; q < 100; q++ {
		res := mustQuery(t, c.Node(victim), corpus[sampler.Sample()])
		if !res.Answered {
			t.Fatalf("phase 3: query %d from restarted node unanswered", q)
		}
	}

	// Recovery: after convergence the steady state must return. Measure
	// the hit rate over a fresh window and compare it against the
	// pre-kill SolveTTL prediction — the paper's model, fitted before
	// the churn, must still describe the recovered cluster.
	recAnswered, recHits := 0, 0
	for q := 0; q < 400; q++ {
		res := mustQuery(t, c.Node(rng.IntN(nodes)), corpus[sampler.Sample()])
		if res.Answered {
			recAnswered++
		}
		if res.FromIndex {
			recHits++
		}
	}
	if recAnswered != 400 {
		t.Fatalf("recovery: %d/400 queries answered", recAnswered)
	}
	recRate := float64(recHits) / 400
	predicted := pre.Model.PredictedHitRate
	t.Logf("recovery hit rate %.3f vs pre-kill SolveTTL prediction %.3f (phase-1 measured %.3f)",
		recRate, predicted, float64(fromIndex)/600)
	if math.Abs(recRate-predicted) > 0.2 {
		t.Fatalf("recovered hit rate %.3f is not within 0.2 of the pre-kill prediction %.3f", recRate, predicted)
	}
	if recRate < 0.5*float64(fromIndex)/600 {
		t.Fatalf("recovered hit rate %.3f collapsed below half the pre-kill measurement %.3f",
			recRate, float64(fromIndex)/600)
	}

	// Phase 4: a freshly-seen cold key walks the full selection path.
	cold := uint64(keyspace.HashString("cold:never-queried-before"))
	mustPublish(t, c.Node(0), cold, 31415)
	res := mustQuery(t, c.Node(1), cold)
	if !res.Answered || res.FromIndex || res.Value != 31415 {
		t.Fatalf("cold query = %+v, want broadcast answer 31415", res)
	}
	if res.BroadcastMsgs == 0 {
		t.Fatal("cold query cost no broadcast messages")
	}
	res = mustQuery(t, c.Node(2), cold)
	if !res.FromIndex {
		t.Fatalf("repeat of cold key = %+v, want index hit", res)
	}

	// Phase 5: silence. Every entry must expire within keyTtl; the index
	// drains to empty with no coordination — the paper's defining claim,
	// and proof that handed-off entries carried their remaining TTL
	// rather than a refreshed one.
	if c.IndexedKeys() == 0 {
		t.Fatal("index already empty before the silence phase — workload too weak")
	}
	time.Sleep(2 * time.Duration(cfg.KeyTtl) * cfg.RoundDuration)
	if got := c.IndexedKeys(); got != 0 {
		t.Fatalf("%d keys still indexed after %v of silence, want 0", got, 2*time.Duration(cfg.KeyTtl)*cfg.RoundDuration)
	}

	// The per-node reports must carry the model comparison next to the
	// measurement (the live Figures 3–4 readout).
	r := c.Node(0).Report()
	if r.Model == nil {
		t.Fatalf("node 0 report lacks the SolveTTL comparison: %+v", r)
	}
	t.Logf("node 0 after run:\n%s", r)
}

// TestClusterConvergedMeansTheLiveSet boots 65 slots on the memory
// transport — slot 0 alone, then concurrent waves of 1, 2, 4, 8, 16, 32
// and 1 joiners — and holds Converged to its one definition: every live view hashes the list
// of live slots. Right after a kill the survivors still agree with each
// other, on a list that names the dead slot, so the cluster is not
// converged; and a WaitConverged that times out says so in a summary, not
// in a dump of every view.
func TestClusterConvergedMeansTheLiveSet(t *testing.T) {
	const n = 65
	cfg := DefaultConfig()
	cfg.RoundDuration = 100 * time.Millisecond
	cfg.GossipInterval = 50 * time.Millisecond
	cfg.SuspicionTimeout = time.Second
	cfg.SyncInterval = 200 * time.Millisecond
	c, err := NewCluster(transport.NewMemory(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := c.Kill(n - 1); err != nil {
		t.Fatal(err)
	}
	// No survivor can have evicted the dead slot yet: that takes a full
	// suspicion window.
	want := c.Node(0).ViewHash()
	for i := 1; i < n-1; i++ {
		if c.Node(i).ViewHash() != want {
			t.Fatalf("survivor %d changed its view right after the kill", i)
		}
	}
	if got := len(c.Node(0).Members()); got != n {
		t.Fatalf("survivor view holds %d members right after the kill, want all %d", got, n)
	}
	if c.Converged() {
		t.Fatal("Converged holds while every view still names the killed slot")
	}
	err = c.WaitConverged(0)
	if err == nil {
		t.Fatal("WaitConverged(0) succeeded on an unconverged cluster")
	}
	if len(err.Error()) >= 1024 {
		t.Fatalf("timeout error is %d bytes, want a summary under 1 KiB", len(err.Error()))
	}
	t.Log(err)
}
