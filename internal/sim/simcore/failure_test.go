package simcore

import (
	"testing"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
)

// Failure injection: the selection algorithm under partial and total
// infrastructure loss. The paper's premise is extreme transience; these
// tests pin down what each layer does when its dependencies vanish
// mid-operation.

func TestInsertIntoFullyOfflineGroupFails(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 40)
	key := k("doomed")
	for _, p := range pi.DHT().ReplicaGroup(key) {
		net.SetOnline(p, false)
	}
	ir := pi.Insert(200, key, 1)
	if ir.OK || ir.Stored != 0 {
		t.Errorf("insert into a dead group claimed success: %+v", ir)
	}
	if pi.IndexedKeys() != 0 {
		t.Error("dead-group insert grew the index")
	}
}

func TestLookupWithWholeDHTOffline(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 41)
	pi.Insert(0, k("x"), 1)
	for _, p := range pi.DHT().ActivePeers() {
		net.SetOnline(p, false)
	}
	lr := pi.Lookup(260, k("x")) // peer 260 is outside the DHT and online
	if lr.RouteOK || lr.Hit {
		t.Errorf("lookup succeeded against a dead DHT: %+v", lr)
	}
}

func TestQueryFallsBackToBroadcastWhenDHTDead(t *testing.T) {
	// End-to-end: the whole DHT goes dark, but content still exists in
	// the unstructured network. Queries must still be answered — at
	// broadcast price — and the failed insert must not corrupt anything.
	pi, net, rng := testIndex(t, ttlConfig(), 42)
	bc := &fakeBroadcaster{net: net, existing: map[keyspace.Key]core.Value{k("news"): 9}, fee: 50}
	p := NewPDHT(pi, bc, rng)
	for _, peer := range pi.DHT().ActivePeers() {
		net.SetOnline(peer, false)
	}
	out := p.Query(260, k("news"))
	if !out.Answered {
		t.Fatal("query unanswered although the content exists in the overlay")
	}
	if out.FromIndex {
		t.Error("claimed an index hit with the DHT offline")
	}
	if out.BroadcastMsgs != 50 {
		t.Errorf("broadcast msgs = %d", out.BroadcastMsgs)
	}
}

func TestRecoveryAfterBlackout(t *testing.T) {
	// The DHT dies, comes back, and the selection algorithm repopulates
	// it via the ordinary miss-broadcast-insert path: self-healing with
	// no special recovery code.
	pi, net, rng := testIndex(t, ttlConfig(), 43)
	bc := &fakeBroadcaster{net: net, existing: map[keyspace.Key]core.Value{k("phoenix"): 7}, fee: 50}
	p := NewPDHT(pi, bc, rng)

	if out := p.Query(1, k("phoenix")); !out.Answered {
		t.Fatal("warm-up query failed")
	}
	for _, peer := range pi.DHT().ActivePeers() {
		net.SetOnline(peer, false)
	}
	if out := p.Query(2, k("phoenix")); out.FromIndex {
		t.Fatal("index hit during blackout")
	}
	for _, peer := range pi.DHT().ActivePeers() {
		net.SetOnline(peer, true)
	}
	// First query after recovery re-inserts (the blackout-era entry
	// still lives in the caches, so this may even hit directly).
	p.Query(3, k("phoenix"))
	out := p.Query(4, k("phoenix"))
	if !out.FromIndex {
		t.Error("index did not recover after the blackout")
	}
}

func TestCapacityPressureEvictsColdestNotHottest(t *testing.T) {
	// Shrink the caches so the working set exceeds capacity: the
	// TTL-soonest (least-recently-queried) entries must be the ones to
	// go, keeping hot keys hittable.
	cfg := ttlConfig()
	cfg.PeerCapacity = 2
	pi, net, rng := testIndex(t, cfg, 44)
	bc := &fakeBroadcaster{net: net, existing: make(map[keyspace.Key]core.Value), fee: 50}
	p := NewPDHT(pi, bc, rng)

	hot := k("hot")
	bc.existing[hot] = 1
	for i := 0; i < 40; i++ {
		cold := keyspace.Key(uint64(i+1000) * 0x9e3779b97f4a7c15)
		bc.existing[cold] = core.Value(i)
	}
	p.Query(0, hot)
	for i := 0; i < 40; i++ {
		net.AdvanceRound()
		// Keep the hot key hot…
		if i%3 == 0 {
			p.Query(netsim.PeerID(i%256), hot)
		}
		// …while cold keys churn through the tiny caches.
		p.Query(netsim.PeerID(i%256), keyspace.Key(uint64(i+1000)*0x9e3779b97f4a7c15))
	}
	out := p.Query(9, hot)
	if !out.FromIndex {
		t.Error("hot key evicted under capacity pressure despite constant queries")
	}
}
