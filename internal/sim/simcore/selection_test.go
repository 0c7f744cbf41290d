package simcore

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// fakeBroadcaster simulates the unstructured network: it knows which keys
// exist and charges a fixed fee per search.
type fakeBroadcaster struct {
	net      *netsim.Network
	existing map[keyspace.Key]core.Value
	fee      int
	searches int
}

func (b *fakeBroadcaster) Search(from netsim.PeerID, key keyspace.Key, rng *rand.Rand) (core.Value, bool, int) {
	b.searches++
	b.net.Send(stats.MsgBroadcast, int64(b.fee))
	v, ok := b.existing[key]
	return v, ok, b.fee
}

func testPDHT(t *testing.T, seed uint64) (*PDHT, *fakeBroadcaster, *netsim.Network) {
	t.Helper()
	pi, net, rng := testIndex(t, ttlConfig(), seed)
	bc := &fakeBroadcaster{net: net, existing: make(map[keyspace.Key]core.Value), fee: 100}
	return NewPDHT(pi, bc, rng), bc, net
}

func TestQueryMissThenBroadcastThenInsert(t *testing.T) {
	p, bc, _ := testPDHT(t, 1)
	key := k("article-1")
	bc.existing[key] = 11

	out := p.Query(3, key)
	if !out.Answered || out.FromIndex {
		t.Fatalf("first query should answer from broadcast: %+v", out)
	}
	if out.Value != 11 {
		t.Errorf("value = %v", out.Value)
	}
	if out.BroadcastMsgs != 100 {
		t.Errorf("broadcast msgs = %d", out.BroadcastMsgs)
	}
	if out.InsertMsgs == 0 {
		t.Error("broadcast success must insert into the index")
	}

	// Second query: answered from the index, no broadcast.
	out2 := p.Query(4, key)
	if !out2.Answered || !out2.FromIndex {
		t.Fatalf("second query should hit the index: %+v", out2)
	}
	if out2.BroadcastMsgs != 0 || out2.InsertMsgs != 0 {
		t.Errorf("index hit should not broadcast or insert: %+v", out2)
	}
	if bc.searches != 1 {
		t.Errorf("broadcaster searched %d times, want 1", bc.searches)
	}
	// The index hit must be cheaper than the miss path.
	if out2.Total() >= out.Total() {
		t.Errorf("hit cost %d not below miss cost %d", out2.Total(), out.Total())
	}
}

func TestQueryNonexistentKey(t *testing.T) {
	p, bc, _ := testPDHT(t, 2)
	out := p.Query(5, k("no-such-article"))
	if out.Answered {
		t.Fatal("answered a query for nothing")
	}
	if out.InsertMsgs != 0 {
		t.Error("inserted a nonexistent key")
	}
	if bc.searches != 1 {
		t.Errorf("searches = %d", bc.searches)
	}
	if p.Index().IndexedKeys() != 0 {
		t.Error("index grew on a failed query")
	}
}

func TestUnpopularKeysTimeOutPopularStay(t *testing.T) {
	// The paper's headline behaviour (§5.1): frequently queried keys stay
	// in the index; unpopular ones fall out after keyTtl.
	p, bc, net := testPDHT(t, 3)
	hot, cold := k("hot"), k("cold")
	bc.existing[hot] = 1
	bc.existing[cold] = 2

	p.Query(0, hot)
	p.Query(0, cold)
	// Query hot every 30 rounds (TTL is 50); never query cold again.
	for r := 1; r <= 120; r++ {
		net.AdvanceRound()
		if r%30 == 0 {
			out := p.Query(netsim.PeerID(r%256), hot)
			if !out.FromIndex {
				t.Fatalf("round %d: hot key missed the index", r)
			}
		}
	}
	if got := p.Index().IndexedKeys(); got != 1 {
		t.Errorf("IndexedKeys = %d, want only the hot key", got)
	}
	// Cold key is re-fetchable, at broadcast price.
	out := p.Query(9, cold)
	if !out.Answered || out.FromIndex {
		t.Errorf("cold key should need a broadcast again: %+v", out)
	}
}

func TestAdaptationToDistributionShift(t *testing.T) {
	// §5.2/§6: the index must follow a change in query popularity — old
	// favorites expire, new favorites enter.
	p, bc, net := testPDHT(t, 4)
	oldKeys := make([]keyspace.Key, 5)
	newKeys := make([]keyspace.Key, 5)
	for i := range oldKeys {
		oldKeys[i] = keyspace.Key(uint64(i+1) * 0x9e3779b97f4a7c15)
		newKeys[i] = keyspace.Key(uint64(i+100) * 0x9e3779b97f4a7c15)
		bc.existing[oldKeys[i]] = core.Value(i)
		bc.existing[newKeys[i]] = core.Value(i + 100)
	}
	// Phase 1: old keys are hot.
	for r := 0; r < 100; r++ {
		net.AdvanceRound()
		if r%10 == 0 {
			for _, key := range oldKeys {
				p.Query(netsim.PeerID(r%256), key)
			}
		}
	}
	if got := p.Index().IndexedKeys(); got != 5 {
		t.Fatalf("phase 1: IndexedKeys = %d, want 5", got)
	}
	// Phase 2: popularity flips.
	for r := 0; r < 150; r++ {
		net.AdvanceRound()
		if r%10 == 0 {
			for _, key := range newKeys {
				p.Query(netsim.PeerID(r%256), key)
			}
		}
	}
	if got := p.Index().IndexedKeys(); got != 5 {
		t.Fatalf("phase 2: IndexedKeys = %d, want 5 (new head only)", got)
	}
	// All new keys answer from the index; all old ones need broadcast.
	for _, key := range newKeys {
		if out := p.Query(1, key); !out.FromIndex {
			t.Error("new hot key not in index after shift")
		}
	}
	for _, key := range oldKeys {
		if out := p.Query(1, key); out.FromIndex {
			t.Error("stale key still indexed after shift")
		}
	}
}

func TestQueryCountsOnNetworkCounters(t *testing.T) {
	p, bc, net := testPDHT(t, 5)
	key := k("counted")
	bc.existing[key] = 3
	before := net.Counters().Total()
	out := p.Query(0, key)
	delta := net.Counters().Total() - before
	if delta != int64(out.Total()) {
		t.Errorf("counters moved by %d, outcome says %d", delta, out.Total())
	}
}
