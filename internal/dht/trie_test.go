package dht

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func activeRange(n int) []netsim.PeerID {
	out := make([]netsim.PeerID, n)
	for i := range out {
		out[i] = netsim.PeerID(i)
	}
	return out
}

func newTestTrie(t *testing.T, nNet, nActive int, cfg TrieConfig, seed uint64) (*Trie, *netsim.Network, *rand.Rand) {
	t.Helper()
	net := netsim.New(nNet)
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	trie, err := NewTrie(net, activeRange(nActive), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return trie, net, rng
}

func TestTrieConstruction(t *testing.T) {
	trie, _, _ := newTestTrie(t, 2000, 1024, TrieConfig{GroupSize: 8, Env: 0.1}, 1)
	// 1024/8 = 128 leaves → depth 7.
	if trie.Depth() != 7 {
		t.Errorf("Depth = %d, want 7", trie.Depth())
	}
	if len(trie.leaves) != 128 {
		t.Errorf("leaves = %d, want 128", len(trie.leaves))
	}
	for i, members := range trie.leaves {
		if len(members) != 8 {
			t.Errorf("leaf %d has %d members, want 8", i, len(members))
		}
	}
	if len(trie.ActivePeers()) != 1024 {
		t.Errorf("ActivePeers = %d", len(trie.ActivePeers()))
	}
	if trie.RoutingEntries() == 0 {
		t.Error("no routing entries built")
	}
}

func TestTrieConfigValidation(t *testing.T) {
	net := netsim.New(10)
	rng := rand.New(rand.NewPCG(1, 2))
	cases := []struct {
		active []netsim.PeerID
		cfg    TrieConfig
	}{
		{activeRange(10), TrieConfig{GroupSize: 0}},
		{nil, TrieConfig{GroupSize: 5}},
		{activeRange(10), TrieConfig{GroupSize: 5, Env: 1.5}},
		{activeRange(10), TrieConfig{GroupSize: 5, Env: -0.1}},
		{activeRange(10), TrieConfig{GroupSize: 5, Redundancy: -1}},
	}
	for i, c := range cases {
		if _, err := NewTrie(net, c.active, c.cfg, rng); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTrieSingleLeafDegenerate(t *testing.T) {
	trie, _, rng := newTestTrie(t, 20, 10, TrieConfig{GroupSize: 8, Env: 0.1}, 2)
	if trie.Depth() != 0 {
		t.Fatalf("Depth = %d, want 0 for 10 peers with group size 8", trie.Depth())
	}
	key := keyspace.HashString("anything")
	if got := len(trie.ReplicaGroup(key)); got != 10 {
		t.Errorf("single leaf should hold everyone, got %d", got)
	}
	res := trie.Route(0, key, rng)
	if !res.OK {
		t.Fatal("route failed in a single-leaf trie")
	}
	if res.Hops != 0 {
		t.Errorf("active peer in a single-leaf trie should be responsible itself, hops = %d", res.Hops)
	}
}

func TestTrieReplicaGroupMatchesKeyPrefix(t *testing.T) {
	trie, _, _ := newTestTrie(t, 1000, 512, TrieConfig{GroupSize: 8, Env: 0.1}, 3)
	rng := rand.New(rand.NewPCG(99, 100))
	for i := 0; i < 200; i++ {
		key := keyspace.Key(rng.Uint64())
		leaf := trie.Leaf(key)
		group := trie.ReplicaGroup(key)
		if len(group) == 0 {
			t.Fatal("empty replica group")
		}
		for _, p := range group {
			if trie.state[trie.peers[p]].leaf != leaf {
				t.Fatalf("peer %d in group for key %s but lives in leaf %d ≠ %d",
					p, key, trie.state[trie.peers[p]].leaf, leaf)
			}
		}
	}
}

func TestTrieRouteNoChurn(t *testing.T) {
	trie, net, rng := newTestTrie(t, 1200, 1024, TrieConfig{GroupSize: 8, Env: 0.1}, 4)
	var totalHops int
	const lookups = 500
	for i := 0; i < lookups; i++ {
		from := netsim.PeerID(rng.IntN(1024))
		key := keyspace.Key(rng.Uint64())
		res := trie.Route(from, key, rng)
		if !res.OK {
			t.Fatalf("lookup %d failed without churn", i)
		}
		if res.Hops > trie.Depth() {
			t.Fatalf("lookup took %d hops, depth is %d", res.Hops, trie.Depth())
		}
		// The peer reached must actually be responsible.
		found := false
		for _, p := range trie.ReplicaGroup(key) {
			if p == res.Responsible {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("route terminated at non-responsible peer %d", res.Responsible)
		}
		totalHops += res.Hops
	}
	// Expected hops ≈ depth/2 = 3.5 (eq. 7's ½·log₂ shape).
	mean := float64(totalHops) / lookups
	if mean < 2 || mean > 5 {
		t.Errorf("mean hops = %v, want ≈ depth/2 = 3.5", mean)
	}
	if net.Counters().Get(stats.MsgIndexLookup) != int64(totalHops) {
		t.Errorf("counters %d ≠ hops %d",
			net.Counters().Get(stats.MsgIndexLookup), totalHops)
	}
}

func TestTrieRouteFromOutsider(t *testing.T) {
	// Peers 512.. are not DHT members; their lookups pay the extra entry
	// hop the paper prescribes for non-participants.
	trie, _, rng := newTestTrie(t, 1024, 512, TrieConfig{GroupSize: 8, Env: 0.1}, 5)
	res := trie.Route(netsim.PeerID(700), keyspace.Key(rng.Uint64()), rng)
	if !res.OK {
		t.Fatal("outsider lookup failed")
	}
	if res.Hops < 1 {
		t.Error("outsider lookup cannot be free")
	}
}

func TestTrieRouteUnderChurn(t *testing.T) {
	trie, net, rng := newTestTrie(t, 1024, 1024, TrieConfig{GroupSize: 16, Env: 0.1}, 6)
	// Take 30% of peers offline.
	for i := 0; i < 1024; i++ {
		if rng.Float64() < 0.3 {
			net.SetOnline(netsim.PeerID(i), false)
		}
	}
	succeeded := 0
	const lookups = 300
	for i := 0; i < lookups; i++ {
		from, ok := net.RandomOnline(rng)
		if !ok {
			t.Fatal("network died")
		}
		key := keyspace.Key(rng.Uint64())
		res := trie.Route(from, key, rng)
		if res.OK {
			if !net.Online(res.Responsible) {
				t.Fatal("route terminated at an offline peer")
			}
			succeeded++
		}
	}
	// With 16-peer groups and 30% churn, a whole group being offline is
	// essentially impossible; routing should nearly always succeed.
	if succeeded < lookups*95/100 {
		t.Errorf("only %d/%d lookups succeeded under 30%% churn", succeeded, lookups)
	}
}

func TestTrieRouteAllOffline(t *testing.T) {
	trie, net, rng := newTestTrie(t, 64, 64, TrieConfig{GroupSize: 8, Env: 0.1}, 7)
	for i := 0; i < 64; i++ {
		net.SetOnline(netsim.PeerID(i), false)
	}
	res := trie.Route(0, keyspace.HashString("k"), rng)
	if res.OK {
		t.Error("route succeeded on a dead network")
	}
}

func TestTrieMaintenanceProbesAndRepairs(t *testing.T) {
	trie, net, rng := newTestTrie(t, 512, 512, TrieConfig{GroupSize: 8, Env: 1.0}, 8)
	// Kill 20% of peers; with env=1 every entry of every online peer is
	// probed, so every stale entry is found.
	for i := 0; i < 512; i++ {
		if rng.Float64() < 0.2 {
			net.SetOnline(netsim.PeerID(i), false)
		}
	}
	ms := trie.Maintain(rng)
	if ms.Probes == 0 {
		t.Fatal("no probes with env=1")
	}
	if ms.Stale == 0 {
		t.Fatal("no stale entries found despite 20% churn")
	}
	if ms.Repaired < ms.Stale*9/10 {
		t.Errorf("repaired %d of %d stale entries", ms.Repaired, ms.Stale)
	}
	if got := net.Counters().Get(stats.MsgMaintenance); got != int64(ms.Probes) {
		t.Errorf("maintenance counter %d ≠ probes %d", got, ms.Probes)
	}
	// A second pass finds (almost) nothing stale: repairs stuck.
	ms2 := trie.Maintain(rng)
	if ms2.Stale > ms.Stale/10 {
		t.Errorf("second pass still found %d stale entries", ms2.Stale)
	}
}

func TestTrieMaintenanceRateScalesWithEnv(t *testing.T) {
	probesAt := func(env float64) int {
		trie, _, rng := newTestTrie(t, 256, 256, TrieConfig{GroupSize: 8, Env: env}, 9)
		total := 0
		for r := 0; r < 20; r++ {
			total += trie.Maintain(rng).Probes
		}
		return total
	}
	lo, hi := probesAt(0.05), probesAt(0.5)
	if lo >= hi {
		t.Errorf("probes: env=0.05 gave %d, env=0.5 gave %d", lo, hi)
	}
	// Expectation: probes/round ≈ env · entries.
	trie, _, rng := newTestTrie(t, 256, 256, TrieConfig{GroupSize: 8, Env: 0.25}, 10)
	entries := trie.RoutingEntries()
	total := 0
	const rounds = 40
	for r := 0; r < rounds; r++ {
		total += trie.Maintain(rng).Probes
	}
	got := float64(total) / rounds
	want := 0.25 * float64(entries)
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("probes/round = %v, want ≈ %v", got, want)
	}
}

func TestTrieOfflinePeersDoNotProbe(t *testing.T) {
	trie, net, rng := newTestTrie(t, 64, 64, TrieConfig{GroupSize: 8, Env: 1.0}, 11)
	for i := 0; i < 64; i++ {
		net.SetOnline(netsim.PeerID(i), false)
	}
	if ms := trie.Maintain(rng); ms.Probes != 0 {
		t.Errorf("offline peers sent %d probes", ms.Probes)
	}
}

func TestTrieRouteDeterministic(t *testing.T) {
	run := func() int {
		trie, _, rng := newTestTrie(t, 512, 512, TrieConfig{GroupSize: 8, Env: 0.1}, 12)
		hops := 0
		for i := 0; i < 100; i++ {
			res := trie.Route(netsim.PeerID(i), keyspace.Key(uint64(i)*0x9e3779b97f4a7c15), rng)
			hops += res.Hops
		}
		return hops
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different hop totals: %d vs %d", a, b)
	}
}

func TestTrieSubtreeRangeInvariants(t *testing.T) {
	trie, _, _ := newTestTrie(t, 600, 512, TrieConfig{GroupSize: 8, Env: 0.1}, 13)
	d := trie.Depth() // 6 → 64 leaves
	for leaf := 0; leaf < len(trie.leaves); leaf++ {
		for lvl := 0; lvl < d; lvl++ {
			lo, hi := trie.subtreeRange(leaf, lvl)
			if lo < 0 || hi > len(trie.leaves) || lo >= hi {
				t.Fatalf("subtreeRange(%d,%d) = [%d,%d)", leaf, lvl, lo, hi)
			}
			if leaf >= lo && leaf < hi {
				t.Fatalf("complementary subtree of leaf %d at level %d contains itself", leaf, lvl)
			}
			// All leaves in the range diverge from leaf exactly at lvl.
			for l := lo; l < hi; l++ {
				if got := trie.divergenceLevel(leaf, l); got != lvl {
					t.Fatalf("leaf %d vs %d: divergence %d, want %d", leaf, l, got, lvl)
				}
			}
		}
	}
}

// A replica group never names a peer twice.
func TestGroupsHaveNoDuplicates(t *testing.T) {
	trie, _, rng := newTestTrie(t, 512, 512, TrieConfig{GroupSize: 8, Env: 0.1}, 11)
	for i := 0; i < 100; i++ {
		seen := make(map[netsim.PeerID]bool)
		for _, p := range trie.ReplicaGroup(keyspace.Key(rng.Uint64())) {
			if seen[p] {
				t.Fatalf("duplicate peer %d in group", p)
			}
			seen[p] = true
		}
	}
}
