package node

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"pdht/internal/core"
	"pdht/internal/transport"
)

// testConfig shrinks the round to 50ms so TTL behavior is observable in a
// test run; keyTtl 4 rounds = 200ms of lifetime.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 50 * time.Millisecond
	cfg.KeyTtl = 4
	cfg.CallTimeout = 2 * time.Second
	return cfg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSingleNodeMissBroadcastInsertHit(t *testing.T) {
	nd, err := New(transport.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	mustPublish(t, nd, 99, 4242)

	first := mustQuery(t, nd, 99)
	if !first.Answered || first.FromIndex {
		t.Fatalf("first query = %+v, want answered from broadcast", first)
	}
	if first.Value != 4242 {
		t.Fatalf("first query value = %d, want 4242", first.Value)
	}
	second := mustQuery(t, nd, 99)
	if !second.Answered || !second.FromIndex {
		t.Fatalf("second query = %+v, want index hit", second)
	}
}

func TestClusterMissBroadcastInsertHit(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, 5*time.Second, func() bool {
		for i := 0; i < c.Size(); i++ {
			if len(c.Node(i).Members()) != 3 {
				return false
			}
		}
		return true
	}, "full membership")

	// Content lives only at node 2; node 0 queries.
	const key = 7777
	mustPublish(t, c.Node(2), key, 1234)

	first := mustQuery(t, c.Node(0), key)
	if !first.Answered || first.FromIndex || first.Value != 1234 {
		t.Fatalf("first query = %+v, want broadcast answer 1234", first)
	}
	if first.BroadcastMsgs != 2 {
		t.Fatalf("broadcast cost %d messages, want 2 (full fan-out minus self)", first.BroadcastMsgs)
	}
	if first.AnsweredBy != c.Node(2).Addr() {
		t.Fatalf("answered by %s, want the content holder %s", first.AnsweredBy, c.Node(2).Addr())
	}

	// The insert leg must have installed the key; a repeat query — from a
	// different node — hits the index without broadcasting.
	second := mustQuery(t, c.Node(1), key)
	if !second.Answered || !second.FromIndex || second.Value != 1234 {
		t.Fatalf("second query = %+v, want index hit 1234", second)
	}
	if second.BroadcastMsgs != 0 {
		t.Fatalf("index hit still broadcast %d messages", second.BroadcastMsgs)
	}
}

func TestUnansweredQuery(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := mustQuery(t, c.Node(0), 31337) // nobody published it
	if res.Answered {
		t.Fatalf("query for unpublished key answered: %+v", res)
	}
	if got := c.Node(0).Report().Unanswered; got != 1 {
		t.Fatalf("unanswered counter = %d, want 1", got)
	}
}

// TestTTLRefreshAndExpiry drives the defining TTL behavior end to end: a
// queried key outlives its original TTL through reset-on-hit, then expires
// once queries stop.
func TestTTLRefreshAndExpiry(t *testing.T) {
	cfg := testConfig() // keyTtl 4 rounds × 50ms = 200ms
	c, err := NewCluster(transport.NewMemory(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const key = 555
	mustPublish(t, c.Node(1), key, 1)
	if res := mustQuery(t, c.Node(0), key); !res.Answered {
		t.Fatal("seed query unanswered")
	}

	// Query every ~half TTL for 3× the TTL: each hit must refresh the
	// entry, keeping it alive far beyond the original 200ms.
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		res := mustQuery(t, c.Node(0), key)
		if !res.Answered {
			t.Fatal("key fell out of the index while being queried")
		}
		time.Sleep(80 * time.Millisecond)
	}
	if res := mustQuery(t, c.Node(0), key); !res.FromIndex {
		t.Fatalf("query after sustained refreshing = %+v, want index hit", res)
	}

	// Stop querying; after 2× TTL the entry must be gone from every
	// node's cache, and the next query must fall back to broadcast.
	time.Sleep(2 * time.Duration(cfg.KeyTtl) * cfg.RoundDuration)
	if got := c.IndexedKeys(); got != 0 {
		t.Fatalf("%d keys still indexed after TTL silence, want 0", got)
	}
	res := mustQuery(t, c.Node(0), key)
	if !res.Answered || res.FromIndex {
		t.Fatalf("post-expiry query = %+v, want broadcast answer", res)
	}
}

func TestRefreshCountsAtStoringPeer(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const key = 808
	mustPublish(t, c.Node(0), key, 9)
	mustQuery(t, c.Node(0), key) // miss → insert
	res := mustQuery(t, c.Node(0), key)
	if !res.FromIndex {
		t.Fatalf("second query = %+v, want hit", res)
	}
	// The reset-on-hit rule is an explicit OpRefresh at the answering
	// peer; at least one node must have counted it (the answerer may be
	// the querier itself when it is in the replica group).
	total := uint64(0)
	for i := 0; i < 3; i++ {
		total += c.Node(i).Report().Refreshes
	}
	if total == 0 {
		t.Fatal("no node recorded a TTL refresh after an index hit")
	}
}

// TestBackendGenericity runs the miss→insert→hit cycle over the live
// overlay, the ring. The simulator runs the same cycle over the trie
// (internal/sim/simcore TestQueryMissThenBroadcastThenInsert): the paper's
// claim that the selection algorithm is indifferent to the DHT underneath,
// on the two geometries the repo has.
func TestBackendGenericity(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		c, err := NewCluster(transport.NewMemory(), 4, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		waitFor(t, 5*time.Second, func() bool {
			for i := 0; i < c.Size(); i++ {
				if len(c.Node(i).Members()) != 4 {
					return false
				}
			}
			return true
		}, "full membership")
		for k := uint64(1); k <= 20; k++ {
			mustPublish(t, c.Node(int(k)%4), k, k*10)
		}
		for k := uint64(1); k <= 20; k++ {
			if res := mustQuery(t, c.Node(0), k); !res.Answered || res.Value != k*10 {
				t.Fatalf("cold query %d = %+v", k, res)
			}
		}
		hits := 0
		for k := uint64(1); k <= 20; k++ {
			if res := mustQuery(t, c.Node(1), k); res.FromIndex {
				hits++
			}
		}
		if hits < 15 {
			t.Fatalf("only %d/20 repeat queries hit the index", hits)
		}
	})
}

func TestJoinPropagatesMembership(t *testing.T) {
	tr := transport.NewMemory()
	cfg := testConfig()
	seed, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	cfg2 := cfg
	cfg2.Seeds = []string{seed.Addr()}
	a, err := New(tr, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(tr, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// a joined before b existed; the seed's forwarding must deliver b's
	// arrival to a without a ever talking to b.
	waitFor(t, 5*time.Second, func() bool { return len(a.Members()) == 3 }, "join forwarding to earlier member")
	waitFor(t, 5*time.Second, func() bool { return len(b.Members()) == 3 }, "joiner adopting full view")
}

// TestJoinFallsBackToTheNextSeed: a seed that never answers costs the
// joiner its attempts there, not its boot — one New reaches the cluster
// through the next seed.
func TestJoinFallsBackToTheNextSeed(t *testing.T) {
	tr := transport.NewMemory()
	cfg := testConfig()
	live, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	cfg.Seeds = []string{"mem-unreachable", live.Addr()}
	nd, err := New(tr, cfg)
	if err != nil {
		t.Fatalf("New with an unreachable first seed: %v", err)
	}
	defer nd.Close()
	waitFor(t, 5*time.Second, func() bool { return len(nd.Members()) == 2 }, "joiner adopting the live seed's view")
}

// stallingTransport wraps a transport; a Dial to addr blocks until release
// is closed or two seconds pass — a peer whose TCP handshake hangs.
type stallingTransport struct {
	transport.Transport
	addr    string
	release chan struct{}
}

func (t *stallingTransport) Dial(addr string) (transport.Client, error) {
	if addr == t.addr {
		select {
		case <-t.release:
		case <-time.After(2 * time.Second):
		}
	}
	return t.Transport.Dial(addr)
}

// TestGossipCallReturnsAtItsDeadlineDuringADial checks that a SWIM probe to
// a peer whose dial hangs returns at the probe's own deadline: the first
// dial runs on a goroutine of its own, so the protocol loop is held for the
// probe timeout, not for the dial's.
func TestGossipCallReturnsAtItsDeadlineDuringADial(t *testing.T) {
	const peer = "stalled-peer"
	st := &stallingTransport{Transport: transport.NewMemory(), addr: peer, release: make(chan struct{})}
	nd, err := New(st, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	defer close(st.release)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = nd.gossipCall(ctx, peer, transport.Gossip{Kind: transport.GossipPing, From: nd.Addr()})
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Fatalf("a 50ms probe to a peer whose dial hangs took %v", took)
	}
	if err == nil {
		t.Fatal("a probe to a peer that never answered succeeded")
	}
}

func TestReportModelComparison(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(1); k <= 30; k++ {
		mustPublish(t, c.Node(int(k)%3), k, k)
	}
	// A skewed workload: key k queried ~30/k times.
	for k := uint64(1); k <= 30; k++ {
		for q := uint64(0); q < 30/k; q++ {
			mustQuery(t, c.Node(0), k)
		}
	}
	// The model needs at least one elapsed round for a finite fQry.
	waitFor(t, 5*time.Second, func() bool { return c.Node(0).Report().Rounds >= 1 }, "round clock to advance")
	r := c.Node(0).Report()
	if r.Model == nil {
		t.Fatalf("report carries no model comparison: %+v", r)
	}
	m := r.Model
	if m.PredictedHitRate < 0 || m.PredictedHitRate > 1 || math.IsNaN(m.PredictedHitRate) {
		t.Fatalf("predicted hit rate %v out of [0,1]", m.PredictedHitRate)
	}
	if m.PredictedIndexSize <= 0 || math.IsNaN(m.PredictedIndexSize) {
		t.Fatalf("predicted index size %v must be positive", m.PredictedIndexSize)
	}
	if m.MeasuredHitRate != r.HitRate {
		t.Fatalf("measured hit rate %v diverges from report %v", m.MeasuredHitRate, r.HitRate)
	}
	if m.Alpha <= 0 {
		t.Fatalf("fitted alpha %v must be positive", m.Alpha)
	}
	// The rendered report must show the two operating points side by side.
	s := r.String()
	for _, want := range []string{"measured", "predicted", "hit rate", "index size"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report lacks %q:\n%s", want, s)
		}
	}
}

// TestReportStringRendersModel renders a Report with a model comparison set
// — no cluster needed — and holds the status block's model lines to their
// exact text: the measured hit rate and index size next to SolveTTL's.
func TestReportStringRendersModel(t *testing.T) {
	r := Report{
		Addr: "a:1", Members: 3, Queries: 111, Hits: 76, HitRate: 76.0 / 111,
		Model: &ModelComparison{
			Peers: 3, DistinctKeys: 40, Alpha: 1.2, FQry: 0.5, KeyTtl: 50,
			PredictedHitRate: 0.8, PredictedIndexSize: 30,
			MeasuredHitRate: 76.0 / 111, MeasuredIndexSize: 28.4,
		},
	}
	s := r.String()
	want := "  model (SolveTTL @ 3 peers, 40 keys, α=1.20, fQry=0.5, keyTtl=50):\n" +
		"    hit rate: measured 68.5% vs predicted 80.0%\n" +
		"    index size: measured ≈28 keys vs predicted 30 keys\n"
	if !strings.HasSuffix(s, want) {
		t.Fatalf("rendered report does not end with the model block:\n%s\nwant suffix:\n%s", s, want)
	}
	r.Model = nil
	if s := r.String(); strings.Contains(s, "model (") {
		t.Fatalf("report without a model fit renders a model block:\n%s", s)
	}
}

// TestConfigValidation holds both configs to their ranges, NaN included:
// a NaN probability fails every comparison, so only a check written as
// "inside the range" refuses it.
func TestConfigValidation(t *testing.T) {
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"repl":             {Repl: -1},
		"keyttl":           {KeyTtl: -5},
		"capacity":         {Capacity: -1},
		"call-timeout":     {CallTimeout: -time.Second},
		"env-above-1":      {MaintainEnv: 2},
		"env-nan":          {MaintainEnv: nan},
		"sampling-above-1": {TraceSampling: 5},
		"sampling-nan":     {TraceSampling: nan},
	} {
		if n, err := New(transport.NewMemory(), cfg); err == nil {
			n.Close()
			t.Errorf("Config %s accepted", name)
		}
	}
	seeds := []string{"a:1"}
	for name, cfg := range map[string]RemoteConfig{
		"no-seeds":         {},
		"repl":             {Seeds: seeds, Repl: -1},
		"keyttl":           {Seeds: seeds, KeyTtl: maxWireTTL + 1},
		"call-timeout":     {Seeds: seeds, CallTimeout: -time.Second},
		"sampling-above-1": {Seeds: seeds, TraceSampling: 5},
		"sampling-neg":     {Seeds: seeds, TraceSampling: -0.5},
		"sampling-nan":     {Seeds: seeds, TraceSampling: nan},
	} {
		cfg.setDefaults()
		if err := cfg.validate(); err == nil {
			t.Errorf("RemoteConfig %s accepted", name)
		}
	}
}

// TestConfigDefaultsAgree pins the defaults to one place: the zero Config,
// the zero RemoteConfig and DefaultConfig() name the same Repl, KeyTtl,
// Capacity, RoundDuration and CallTimeout. TraceSampling is not in the
// table: zero is a value there, not "unset".
func TestConfigDefaultsAgree(t *testing.T) {
	want := DefaultConfig()
	var cfg Config
	cfg.setDefaults()
	var rc RemoteConfig
	rc.setDefaults()
	for _, row := range []struct {
		field     string
		got, want any
	}{
		{"Config.Repl", cfg.Repl, want.Repl},
		{"Config.KeyTtl", cfg.KeyTtl, want.KeyTtl},
		{"Config.Capacity", cfg.Capacity, want.Capacity},
		{"Config.RoundDuration", cfg.RoundDuration, want.RoundDuration},
		{"Config.CallTimeout", cfg.CallTimeout, want.CallTimeout},
		{"RemoteConfig.Repl", rc.Repl, want.Repl},
		{"RemoteConfig.KeyTtl", rc.KeyTtl, want.KeyTtl},
		{"RemoteConfig.CallTimeout", rc.CallTimeout, want.CallTimeout},
	} {
		if row.got != row.want {
			t.Errorf("%s defaults to %v, DefaultConfig says %v", row.field, row.got, row.want)
		}
	}
	if err := want.validate(); err != nil {
		t.Errorf("DefaultConfig does not validate: %v", err)
	}
}

// TestWireTTLIsBounded holds the index against lifetimes only a hostile
// peer would send: a TTL crosses the wire as a varint, and now+TTL equal to
// core.NeverExpires would pin the entry — never evicted, and admitted over
// capacity once the cache holds nothing else. Every form an index
// operation arrives in refuses such an item, nothing pinned is ever
// created, and the cache never outgrows Capacity.
func TestWireTTLIsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Hour // now stays 0: core.NeverExpires-0 lands exactly
	cfg.Capacity = 8
	tr := transport.NewMemory()
	n, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cl, err := tr.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	call := func(req transport.Request) transport.Response {
		t.Helper()
		resp, err := cl.Call(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const held = 1 // a live entry the refresh forms aim at
	if resp := call(transport.Request{Op: transport.OpInsert, Key: held, Value: 1, TTL: maxWireTTL}); !resp.OK {
		t.Fatalf("insert at the bound itself refused: %+v", resp)
	}
	for _, ttl := range []int{maxWireTTL + 1, 1 << 40, core.NeverExpires - 1, core.NeverExpires} {
		for key := uint64(100); key < 100+4*uint64(cfg.Capacity); key++ {
			if resp := call(transport.Request{Op: transport.OpInsert, Key: key, Value: 1, TTL: ttl}); resp.OK || resp.Err == "" {
				t.Fatalf("unary insert with ttl %d: %+v, want a refusal", ttl, resp)
			}
		}
		if resp := call(transport.Request{Op: transport.OpRefresh, Key: held, TTL: ttl}); resp.OK || resp.Err == "" {
			t.Fatalf("unary refresh with ttl %d: %+v, want a refusal", ttl, resp)
		}
		items := []transport.BatchItem{
			{Op: transport.OpInsert, Key: 50, Value: 1, TTL: ttl},
			{Op: transport.OpRefresh, Key: held, TTL: ttl},
			{Op: transport.OpQuery, Key: held, TTL: ttl},         // the piggybacked refresh
			{Op: transport.OpInsert, Key: 51, Value: 1, TTL: 10}, // a sane neighbour still lands
		}
		resp := call(transport.Request{Op: transport.OpBatch, Batch: items})
		if len(resp.Batch) != len(items) {
			t.Fatalf("batch with ttl %d: %+v", ttl, resp)
		}
		for j, br := range resp.Batch[:3] {
			if br.OK || br.Err == "" {
				t.Errorf("batch item %d (%s) with ttl %d: %+v, want a refusal", j, items[j].Op, ttl, br)
			}
		}
		if !resp.Batch[3].OK {
			t.Errorf("sane item next to ttl %d refused: %+v", ttl, resp.Batch[3])
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := n.cache.Entries(n.now())
	if len(entries) > cfg.Capacity {
		t.Errorf("cache holds %d entries, capacity %d", len(entries), cfg.Capacity)
	}
	for _, e := range entries {
		if e.Expires > n.now()+maxWireTTL {
			t.Errorf("key %d expires at round %d, past any lifetime the wire may grant", e.Key, e.Expires)
		}
	}
}

func TestCloseIsIdempotentAndStopsServing(t *testing.T) {
	tr := transport.NewMemory()
	nd, err := New(tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := nd.Addr()
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Seeds = []string{addr}
	if _, err := New(tr, cfg); err == nil {
		t.Fatal("joining a closed node succeeded")
	}
}
