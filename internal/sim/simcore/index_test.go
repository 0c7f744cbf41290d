package simcore

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/core"
	"pdht/internal/dht"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func k(s string) keyspace.Key { return keyspace.HashString(s) }

// testIndex builds a small trie-backed partial index: 256 active peers in
// groups of 8.
func testIndex(t testing.TB, cfg IndexConfig, seed uint64) (*PartialIndex, *netsim.Network, *rand.Rand) {
	t.Helper()
	net := netsim.New(300)
	rng := rand.New(rand.NewPCG(seed, seed^0x77))
	active := make([]netsim.PeerID, 256)
	for i := range active {
		active[i] = netsim.PeerID(i)
	}
	trie, err := dht.NewTrie(net, active, dht.TrieConfig{GroupSize: 8, Env: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := NewPartialIndex(net, trie, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pi, net, rng
}

func ttlConfig() IndexConfig {
	return IndexConfig{KeyTtl: 50, PeerCapacity: 64}
}

func TestNewPartialIndexValidation(t *testing.T) {
	net := netsim.New(10)
	rng := rand.New(rand.NewPCG(1, 2))
	trie, err := dht.NewTrie(net, []netsim.PeerID{0, 1, 2, 3}, dht.TrieConfig{GroupSize: 2, Env: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartialIndex(net, trie, IndexConfig{PeerCapacity: 0}, rng); err == nil {
		t.Error("PeerCapacity 0 accepted")
	}
}

func TestInsertThenLookupHits(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 1)
	key := k("title=weather iraklion")
	ir := pi.Insert(5, key, 42)
	if !ir.OK || ir.Stored == 0 {
		t.Fatalf("insert failed: %+v", ir)
	}
	lr := pi.Lookup(200, key)
	if !lr.Hit || lr.Value != 42 {
		t.Fatalf("lookup after insert: %+v", lr)
	}
	if !net.Online(lr.AnsweredBy) {
		t.Error("answered by an offline peer")
	}
	if pi.IndexedKeys() != 1 {
		t.Errorf("IndexedKeys = %d, want 1", pi.IndexedKeys())
	}
}

func TestLookupMissOnEmptyIndex(t *testing.T) {
	pi, _, _ := testIndex(t, ttlConfig(), 2)
	lr := pi.Lookup(3, k("nothing"))
	if lr.Hit {
		t.Fatal("hit on empty index")
	}
	if !lr.RouteOK {
		t.Fatal("routing failed without churn")
	}
	// Expiring entries: the miss cost includes the replica-subnet flood.
	if lr.FloodMsgs == 0 {
		t.Error("miss did not flood the replica subnet despite a positive KeyTtl")
	}
}

func TestLookupNoFloodWhenDisabled(t *testing.T) {
	cfg := ttlConfig()
	cfg.KeyTtl = 0 // index-everything mode: replicas are kept in sync
	pi, _, _ := testIndex(t, cfg, 3)
	lr := pi.Lookup(3, k("nothing"))
	if lr.FloodMsgs != 0 {
		t.Errorf("flooded %d messages with KeyTtl 0", lr.FloodMsgs)
	}
}

func TestEntriesExpireWithoutQueries(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 4)
	key := k("ephemeral")
	pi.Insert(0, key, 1)
	for r := 0; r < 49; r++ {
		net.AdvanceRound()
	}
	if lr := pi.Lookup(1, key); !lr.Hit {
		t.Fatal("entry expired before its TTL")
	}
	// The hit at round 49 reset the TTL; advance past the new expiry.
	for r := 0; r < 51; r++ {
		net.AdvanceRound()
	}
	if lr := pi.Lookup(1, key); lr.Hit {
		t.Fatal("entry survived past its reset TTL without queries")
	}
	if pi.IndexedKeys() != 0 {
		t.Errorf("IndexedKeys = %d after expiry", pi.IndexedKeys())
	}
}

func TestTTLResetKeepsPopularKeysAlive(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 5)
	key := k("popular")
	pi.Insert(0, key, 1)
	// Query every 40 rounds — inside the 50-round TTL — for 10 cycles:
	// the key must never fall out (§5.1: reset-on-query keeps frequently
	// queried keys indexed).
	for cycle := 0; cycle < 10; cycle++ {
		for r := 0; r < 40; r++ {
			net.AdvanceRound()
		}
		if lr := pi.Lookup(2, key); !lr.Hit {
			t.Fatalf("popular key fell out at cycle %d", cycle)
		}
	}
}

func TestSeedIsFreeAndPermanentWithoutTTL(t *testing.T) {
	cfg := IndexConfig{KeyTtl: 0, PeerCapacity: 64} // index-everything mode
	pi, net, _ := testIndex(t, cfg, 7)
	before := net.Counters().Total()
	for i := 0; i < 100; i++ {
		if err := pi.Seed(keyspace.Key(uint64(i)*0x9e3779b97f4a7c15), core.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if net.Counters().Total() != before {
		t.Error("Seed sent messages")
	}
	if got := pi.IndexedKeys(); got != 100 {
		t.Errorf("IndexedKeys = %d, want 100", got)
	}
	for r := 0; r < 10000; r++ {
		net.AdvanceRound()
	}
	if got := pi.IndexedKeys(); got != 100 {
		t.Errorf("permanent entries expired: %d left", got)
	}
	thirteen := uint64(13)
	lr := pi.Lookup(9, keyspace.Key(thirteen*0x9e3779b97f4a7c15))
	if !lr.Hit || lr.Value != 13 {
		t.Errorf("seeded entry unreadable: %+v", lr)
	}
}

func TestUpdateOverwritesValue(t *testing.T) {
	cfg := IndexConfig{KeyTtl: 0, PeerCapacity: 64}
	pi, net, _ := testIndex(t, cfg, 8)
	key := k("article")
	pi.Seed(key, 1)
	before := net.Counters().Get(stats.MsgUpdate)
	ur := pi.Update(17, key, 2)
	if !ur.OK {
		t.Fatalf("update failed: %+v", ur)
	}
	if net.Counters().Get(stats.MsgUpdate) <= before {
		t.Error("update gossip not recorded as MsgUpdate")
	}
	if lr := pi.Lookup(30, key); lr.Value != 2 {
		t.Errorf("value after update = %v, want 2", lr.Value)
	}
}

func TestFloodOnMissFindsDriftedReplica(t *testing.T) {
	// Insert while the primary's group is partially offline, so only
	// some replicas store the key; a later lookup routed to a
	// non-holding member must still find it through the subnet flood
	// (the whole point of eq. 16's extra cost).
	pi, net, rng := testIndex(t, ttlConfig(), 9)
	key := k("drifted")
	group := pi.DHT().ReplicaGroup(key)
	// Take half the group offline during the insert.
	for i, p := range group {
		if i%2 == 0 {
			net.SetOnline(p, false)
		}
	}
	ir := pi.Insert(0, key, 7)
	if !ir.OK {
		t.Fatal("insert failed with half the group online")
	}
	// Bring everyone back; now the peers that were offline hold nothing.
	for _, p := range group {
		net.SetOnline(p, true)
	}
	hits := 0
	for trial := 0; trial < 30; trial++ {
		from := netsim.PeerID(rng.IntN(256))
		if lr := pi.Lookup(from, key); lr.Hit {
			hits++
		}
	}
	if hits != 30 {
		t.Errorf("only %d/30 lookups hit a partially replicated key", hits)
	}
}

func TestIndexedKeysMatchesExactCount(t *testing.T) {
	pi, net, rng := testIndex(t, ttlConfig(), 10)
	for i := 0; i < 60; i++ {
		pi.Insert(netsim.PeerID(rng.IntN(256)), keyspace.Key(rng.Uint64()), core.Value(i))
		if i%10 == 0 {
			net.AdvanceRound()
		}
	}
	approxN, exactN := pi.IndexedKeys(), pi.ExactIndexedKeys()
	if approxN != exactN {
		t.Errorf("IndexedKeys = %d, ExactIndexedKeys = %d", approxN, exactN)
	}
	for r := 0; r < 60; r++ {
		net.AdvanceRound()
	}
	if pi.IndexedKeys() != 0 || pi.ExactIndexedKeys() != 0 {
		t.Error("counts non-zero after everything expired")
	}
}

func TestMaintainDelegates(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 11)
	ms := pi.Maintain()
	if ms.Probes == 0 {
		t.Error("no probes from Maintain")
	}
	if net.Counters().Get(stats.MsgMaintenance) != int64(ms.Probes) {
		t.Error("maintenance counter mismatch")
	}
}
