package node

import (
	"context"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// TestRankShiftDisagreement demonstrates the hazard the view hash exists
// for: two nodes whose membership lists differ by one member silently
// disagree on replica groups, because ranks are positions in the sorted
// list and every address after the divergence point shifts. Without a
// guard, a query routed under one view and answered under the other is a
// false miss — or an insert parked where nobody will probe it.
func TestRankShiftDisagreement(t *testing.T) {
	full := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	short := []string{"n0", "n1", "n3", "n4", "n5"} // n2 evicted

	vFull := buildView(full, 3)
	vShort := buildView(short, 3)

	disagreements := 0
	for k := uint64(0); k < 200; k++ {
		key := keyspace.HashString("rank-shift-probe")
		key ^= keyspace.Key(k * 0x9e3779b97f4a7c15)
		a, b := vFull.Replicas(key), vShort.Replicas(key)
		if len(a) != len(b) {
			disagreements++
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				disagreements++
				break
			}
		}
	}
	if disagreements == 0 {
		t.Fatal("views differing by one member agreed on every replica group; the rank-shift hazard test is vacuous")
	}
	t.Logf("views differing by one member disagreed on %d/200 replica groups", disagreements)

	// The guard: the membership hash differs, so routed RPCs between the
	// two views are rejectable before they mis-route.
	if vFull.hash == vShort.hash {
		t.Fatal("different membership lists produced the same view hash")
	}
	// And hashing is stable: rebuilding the same list reproduces it.
	vAgain := buildView(append([]string(nil), full...), 3)
	if vAgain.hash != vFull.hash {
		t.Fatal("same membership list produced different view hashes")
	}
}

// TestStaleViewRejected drives the guard over the wire: a routed RPC
// carrying a mismatched membership hash must be refused with
// transport.StaleView — and the refusal must carry the responder's gossip
// state so the stale caller can converge. Unhashed RPCs (handoff pushes)
// must still land.
func TestStaleViewRejected(t *testing.T) {
	tr := transport.NewMemory()
	cfg := testConfig()
	nd, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	cl, err := tr.Dial(nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	hash := nd.view.Load().hash

	for _, op := range []transport.Op{transport.OpQuery, transport.OpInsert, transport.OpRefresh} {
		resp, err := cl.Call(ctx, transport.Request{Op: op, Key: 1, TTL: 5, ViewHash: hash ^ 0xdead})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != transport.StaleView {
			t.Fatalf("%v with wrong hash answered %+v, want %q", op, resp, transport.StaleView)
		}
		if resp.Gossip == nil || !resp.Gossip.Full || len(resp.Gossip.Updates) == 0 {
			t.Fatalf("%v stale-view refusal carries no membership state: %+v", op, resp)
		}
	}

	// The matching hash — and the unhashed handoff form — are served.
	if resp, err := cl.Call(ctx, transport.Request{Op: transport.OpInsert, Key: 1, Value: 2, TTL: 5, ViewHash: hash}); err != nil || !resp.OK {
		t.Fatalf("insert with matching hash = %+v, %v; want stored", resp, err)
	}
	if resp, err := cl.Call(ctx, transport.Request{Op: transport.OpQuery, Key: 1}); err != nil || !resp.Found {
		t.Fatalf("unhashed query = %+v, %v; want found", resp, err)
	}
}
