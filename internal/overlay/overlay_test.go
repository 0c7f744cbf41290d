package overlay

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func newGraph(t *testing.T, n, degree int, seed uint64) (*Graph, *netsim.Network, *rand.Rand) {
	t.Helper()
	net := netsim.New(n)
	rng := rand.New(rand.NewPCG(seed, seed^0xdeadbeef))
	g, err := NewRandomGraph(net, net.Peers(), degree, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, net, rng
}

// newGroup builds a graph over a replica group of `members` peers of an
// n-peer network, with non-contiguous IDs on purpose.
func newGroup(t *testing.T, n, members, degree int, seed uint64) (*Graph, *netsim.Network) {
	t.Helper()
	net := netsim.New(n)
	group := make([]netsim.PeerID, members)
	for i := range group {
		group[i] = netsim.PeerID(i * 3)
	}
	g, err := NewRandomGraph(net, group, degree, rand.New(rand.NewPCG(seed, seed^0xfeed)))
	if err != nil {
		t.Fatal(err)
	}
	return g, net
}

func TestNewRandomGraphValidation(t *testing.T) {
	net := netsim.New(10)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, d := range []int{0, -1} {
		if _, err := NewRandomGraph(net, net.Peers(), d, rng); err == nil {
			t.Errorf("degree %d accepted", d)
		}
	}
	if _, err := NewRandomGraph(net, nil, 1, rng); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewRandomGraph(net, []netsim.PeerID{1, 1}, 1, rng); err == nil {
		t.Error("duplicate members accepted")
	}
	// A degree of at least the member count clamps to members−1: every
	// member is joined to every other.
	for _, d := range []int{10, 50} {
		g, err := NewRandomGraph(net, net.Peers(), d, rng)
		if err != nil {
			t.Fatalf("degree %d should clamp, got %v", d, err)
		}
		for p := netsim.PeerID(0); p < 10; p++ {
			if g.Degree(p) != 9 {
				t.Errorf("degree %d: peer %d has %d links, want 9", d, p, g.Degree(p))
			}
		}
	}
	// A single member is a graph without links (repl = 1).
	g, err := NewRandomGraph(net, []netsim.PeerID{4}, 1, rng)
	if err != nil {
		t.Fatalf("singleton group rejected: %v", err)
	}
	if g.Degree(4) != 0 {
		t.Errorf("singleton has %d links", g.Degree(4))
	}
	if res := g.Flood(4, 1, nil, stats.MsgUpdate); res.Reached != 1 || res.Messages != 0 {
		t.Errorf("singleton flood: %+v", res)
	}
}

func TestGraphDegreeAndSymmetry(t *testing.T) {
	g, _, _ := newGraph(t, 500, 4, 1)
	var total int
	for i := 0; i < 500; i++ {
		p := netsim.PeerID(i)
		if g.Degree(p) < 4 {
			t.Errorf("peer %d has degree %d < 4", i, g.Degree(p))
		}
		total += g.Degree(p)
		for _, q := range g.Neighbors(p) {
			found := false
			for _, r := range g.Neighbors(q) {
				if r == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d—%d not symmetric", p, q)
			}
		}
	}
	mean := g.MeanDegree()
	if mean < 7 || mean > 9 { // each peer opens 4, receives ≈4
		t.Errorf("mean degree = %v, want ≈ 8", mean)
	}
	if total != int(mean*500) {
		t.Errorf("MeanDegree inconsistent with sum")
	}
}

func TestFloodReachesEveryoneWhenConnected(t *testing.T) {
	whole, wholeNet, _ := newGraph(t, 300, 4, 2)
	// A replica group's gossip: a flood whose TTL is the group size,
	// filed under the caller's class.
	group, groupNet := newGroup(t, 200, 50, 2, 3)
	for _, c := range []struct {
		name  string
		g     *Graph
		net   *netsim.Network
		ttl   int
		class stats.MsgClass
	}{
		{"network", whole, wholeNet, 50, stats.MsgBroadcast},
		{"group", group, groupNet, 50, stats.MsgUpdate},
	} {
		g, net := c.g, c.net
		n := len(g.Members())
		res := g.Flood(g.Members()[0], c.ttl, nil, c.class)
		if res.Reached != n {
			t.Errorf("%s: flood reached %d of %d peers", c.name, res.Reached, n)
		}
		if res.Messages <= res.Reached {
			t.Errorf("%s: flood sent %d messages for %d peers — no duplicates in a random graph is implausible", c.name, res.Messages, res.Reached)
		}
		if d := float64(res.Messages) / float64(res.Reached); d < 1 || d > 10 {
			t.Errorf("%s: dup factor = %v, want a small multiple of 1", c.name, d)
		}
		if got := net.Counters().Get(c.class); got != int64(res.Messages) {
			t.Errorf("%s: counters recorded %d, result says %d", c.name, got, res.Messages)
		}
		if got := net.Counters().Total(); got != int64(res.Messages) {
			t.Errorf("%s: %d messages filed outside class %s", c.name, got-int64(res.Messages), c.class)
		}
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	g, _, _ := newGraph(t, 2000, 3, 3)
	shallow := g.Flood(0, 1, nil, stats.MsgBroadcast)
	deep := g.Flood(0, 6, nil, stats.MsgBroadcast)
	if shallow.Reached >= deep.Reached {
		t.Errorf("TTL=1 reached %d, TTL=6 reached %d", shallow.Reached, deep.Reached)
	}
	// TTL 1 reaches exactly origin + its online neighbors.
	if want := g.Degree(0) + 1; shallow.Reached != want {
		t.Errorf("TTL=1 reached %d, want %d", shallow.Reached, want)
	}
}

func TestFloodSkipsOfflinePeers(t *testing.T) {
	g, net, _ := newGraph(t, 200, 4, 4)
	for i := 100; i < 200; i++ {
		net.SetOnline(netsim.PeerID(i), false)
	}
	res := g.Flood(0, 50, nil, stats.MsgBroadcast)
	if res.Reached > 100 {
		t.Errorf("flood reached %d peers but only 100 are online", res.Reached)
	}

	group, groupNet := newGroup(t, 200, 40, 2, 4)
	for i, p := range group.Members() {
		if i%2 == 1 {
			groupNet.SetOnline(p, false)
		}
	}
	if res := group.Flood(group.Members()[0], 40, nil, stats.MsgUpdate); res.Reached > 20 {
		t.Errorf("group flood reached %d members but only 20 are online", res.Reached)
	}
}

func TestFloodFromOfflineOrigin(t *testing.T) {
	g, net, _ := newGraph(t, 50, 3, 5)
	net.SetOnline(7, false)
	res := g.Flood(7, 10, nil, stats.MsgBroadcast)
	if res.Reached != 0 || res.Messages != 0 || res.Found {
		t.Errorf("offline origin flooded: %+v", res)
	}

	// Nor does a group member that is offline, or a peer outside the
	// group's graph.
	group, groupNet := newGroup(t, 200, 10, 2, 5)
	if res := group.Flood(199, 10, nil, stats.MsgUpdate); res.Reached != 0 || res.Messages != 0 {
		t.Errorf("non-member flooded the group: %+v", res)
	}
	p := group.Members()[0]
	groupNet.SetOnline(p, false)
	if res := group.Flood(p, 10, nil, stats.MsgUpdate); res.Reached != 0 || res.Messages != 0 {
		t.Errorf("offline member flooded the group: %+v", res)
	}
}

func TestFloodMatch(t *testing.T) {
	g, _, _ := newGraph(t, 100, 3, 6)
	res := g.Flood(0, 20, func(p netsim.PeerID) bool { return p == 42 }, stats.MsgBroadcast)
	if !res.Found || res.FoundAt != 42 {
		t.Errorf("flood did not find peer 42: %+v", res)
	}
	res = g.Flood(0, 20, func(netsim.PeerID) bool { return false }, stats.MsgBroadcast)
	if res.Found {
		t.Error("flood found a match where none exists")
	}

	group, _ := newGroup(t, 200, 30, 2, 6)
	want := group.Members()[17]
	res = group.Flood(group.Members()[0], 30, func(p netsim.PeerID) bool { return p == want }, stats.MsgReplicaFlood)
	if !res.Found || res.FoundAt != want {
		t.Errorf("group flood did not find member %d: %+v", want, res)
	}
}

func TestRandomWalksFindPlantedContent(t *testing.T) {
	g, _, rng := newGraph(t, 1000, 4, 7)
	store := NewStore(g.Net())
	key := keyspace.HashString("title=weather iraklion")
	if _, err := store.ReplicateRandom(key, 0, 50, rng); err != nil {
		t.Fatal(err)
	}
	res := g.RandomWalks(0, 16, 200, store.OnlineHolderMatch(key), rng, stats.MsgBroadcast)
	if !res.Found {
		t.Fatal("random walks failed to find content replicated at 5% of peers")
	}
	if !store.HasAt(res.FoundAt, key) {
		t.Errorf("walks claim key at %d, which holds nothing", res.FoundAt)
	}
	// The point of walks over flooding (and of replication): far fewer
	// messages than visiting everyone.
	if res.Messages >= 1000 {
		t.Errorf("walks used %d messages — no better than flooding", res.Messages)
	}
}

func TestRandomWalksRespectBudget(t *testing.T) {
	g, _, rng := newGraph(t, 500, 4, 8)
	res := g.RandomWalks(0, 8, 10, func(netsim.PeerID) bool { return false }, rng, stats.MsgBroadcast)
	if res.Found {
		t.Error("found nonexistent content")
	}
	if res.Messages > 8*10 {
		t.Errorf("walks took %d steps, budget is 80", res.Messages)
	}
}

func TestRandomWalksDegenerateInputs(t *testing.T) {
	g, net, rng := newGraph(t, 50, 3, 9)
	match := func(netsim.PeerID) bool { return false }
	if res := g.RandomWalks(0, 0, 10, match, rng, stats.MsgBroadcast); res.Messages != 0 {
		t.Error("zero walkers should send nothing")
	}
	if res := g.RandomWalks(0, 4, 0, match, rng, stats.MsgBroadcast); res.Messages != 0 {
		t.Error("zero steps should send nothing")
	}
	net.SetOnline(3, false)
	if res := g.RandomWalks(3, 4, 10, match, rng, stats.MsgBroadcast); res.Messages != 0 {
		t.Error("offline origin should send nothing")
	}
}

func TestRandomWalksMatchAtOrigin(t *testing.T) {
	g, _, rng := newGraph(t, 50, 3, 10)
	res := g.RandomWalks(5, 4, 10, func(p netsim.PeerID) bool { return p == 5 }, rng, stats.MsgBroadcast)
	if !res.Found || res.FoundAt != 5 || res.Messages != 0 {
		t.Errorf("origin match should be free: %+v", res)
	}
}

func TestRandomWalksDieInDeadNeighborhood(t *testing.T) {
	g, net, rng := newGraph(t, 100, 3, 11)
	// Kill everyone but the origin: walkers cannot take a single step.
	for i := 1; i < 100; i++ {
		net.SetOnline(netsim.PeerID(i), false)
	}
	res := g.RandomWalks(0, 8, 50, func(netsim.PeerID) bool { return false }, rng, stats.MsgBroadcast)
	if res.Found || res.Messages != 0 {
		t.Errorf("walkers escaped a dead neighborhood: %+v", res)
	}
}

func TestSearchFallsBackToFlood(t *testing.T) {
	g, _, rng := newGraph(t, 400, 4, 12)
	store := NewStore(g.Net())
	key := keyspace.HashString("rare")
	if _, err := store.ReplicateRandom(key, 0, 1, rng); err != nil {
		t.Fatal(err)
	}
	// One replica in 400 peers with a starved walk budget: the fallback
	// flood must still find it (the paper assumes unstructured search
	// always finds existing keys).
	cfg := SearchConfig{Walkers: 2, MaxSteps: 2, FloodTTL: 50}
	found, msgs := g.Search(0, cfg, 1, store.OnlineHolderMatch(key), rng)
	if !found {
		t.Fatal("search with flood fallback missed existing content")
	}
	if msgs <= 4 {
		t.Errorf("fallback search reported only %d messages", msgs)
	}
}

func TestSearchDefaultBudget(t *testing.T) {
	g, _, rng := newGraph(t, 1000, 4, 13)
	store := NewStore(g.Net())
	key := keyspace.HashString("common")
	if _, err := store.ReplicateRandom(key, 0, 100, rng); err != nil {
		t.Fatal(err)
	}
	found, msgs := g.Search(0, SearchConfig{}, 100, store.OnlineHolderMatch(key), rng)
	if !found {
		t.Fatal("default search missed content at 10% of peers")
	}
	// Expected cost ≈ numPeers/repl·dup = 10·dup; allow generous slack.
	if msgs > 400 {
		t.Errorf("default search used %d messages for 10%% replication", msgs)
	}
}

func TestStoreReplicateRandom(t *testing.T) {
	net := netsim.New(100)
	rng := rand.New(rand.NewPCG(14, 15))
	store := NewStore(net)
	key := keyspace.HashString("k")
	holders, err := store.ReplicateRandom(key, 7, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 10 {
		t.Fatalf("placed %d replicas, want 10", len(holders))
	}
	seen := make(map[netsim.PeerID]bool)
	for _, p := range holders {
		if seen[p] {
			t.Fatalf("peer %d holds two replicas", p)
		}
		seen[p] = true
		if !store.HasAt(p, key) {
			t.Errorf("HasAt(%d) = false for a holder", p)
		}
	}
	if store.Keys() != 1 || store.Value(key) != 7 {
		t.Errorf("Keys = %d, Value = %d, want 1 and 7", store.Keys(), store.Value(key))
	}
}

func TestStoreReplacePlacement(t *testing.T) {
	net := netsim.New(50)
	rng := rand.New(rand.NewPCG(16, 17))
	store := NewStore(net)
	key := keyspace.HashString("k")
	first, _ := store.ReplicateRandom(key, 0, 5, rng)
	second, _ := store.ReplicateRandom(key, 0, 5, rng)
	// Old holders that are not re-chosen must no longer hold the key.
	inSecond := make(map[netsim.PeerID]bool)
	for _, p := range second {
		inSecond[p] = true
	}
	for _, p := range first {
		if !inSecond[p] && store.HasAt(p, key) {
			t.Errorf("stale replica at %d after re-replication", p)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	net := netsim.New(10)
	rng := rand.New(rand.NewPCG(18, 19))
	store := NewStore(net)
	key := keyspace.HashString("k")
	if _, err := store.ReplicateRandom(key, 0, 0, rng); err == nil {
		t.Error("repl=0 accepted")
	}
	if _, err := store.ReplicateRandom(key, 0, 11, rng); err == nil {
		t.Error("repl>n accepted")
	}
}

func TestMeasuredDupFactorPlausible(t *testing.T) {
	// Full flooding duplicates heavily: every peer forwards to all
	// neighbors but the sender, so dup ≈ meanDegree − 1 (≈ 5 here). This
	// is exactly why the paper's cost model assumes walk-based search
	// (dup = 1.8 [LvCa02]) instead of flooding.
	g, _, rng := newGraph(t, 5000, 3, 20)
	res := g.Flood(0, 30, nil, stats.MsgBroadcast)
	if d := float64(res.Messages) / float64(res.Reached); d < g.MeanDegree()-2 || d > g.MeanDegree() {
		t.Errorf("flood dup factor = %v, want ≈ meanDegree−1 = %v", d, g.MeanDegree()-1)
	}

	// Walk-based search revisits far less: its per-visit duplication is
	// near the paper's 1.8, not the flood's 5.
	store := NewStore(g.Net())
	key := keyspace.HashString("planted")
	if _, err := store.ReplicateRandom(key, 0, 50, rng); err != nil {
		t.Fatal(err)
	}
	var visits, msgs int
	for trial := 0; trial < 20; trial++ {
		origin, _ := g.Net().RandomOnline(rng)
		wr := g.RandomWalks(origin, 16, 400, store.OnlineHolderMatch(key), rng, stats.MsgBroadcast)
		visits += wr.Visited
		msgs += wr.Messages
	}
	dup := float64(msgs) / float64(visits)
	if dup > 3 {
		t.Errorf("walk duplication = %v, want well below the flood's", dup)
	}
}
