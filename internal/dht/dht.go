// Package dht implements the structured overlay ("traditional DHT") that
// the partial index lives in. The paper targets the classical designs —
// P-Grid [Aber01], CAN [RaFr01], Pastry [RoDr01], Chord [StMo01] — whose
// search cost is logarithmic (eq. 7) and whose dominant holding cost is
// keeping routing tables alive under churn by probing entries [MaCa03]
// (eq. 8).
//
// The one implementation is Trie, a P-Grid-style binary-trie DHT: the
// authors' own system, and the binary key space eq. 7 assumes. The
// selection algorithm in internal/sim/simcore runs on it and touches only
// routing, replica groups and maintenance — the paper's claim that the
// scheme "can be used for any of the DHT based systems"; the live node
// runs the same algorithm over a consistent-hash ring
// (keyspace.MemberRing).
package dht

import (
	"math/rand/v2"

	"pdht/internal/netsim"
)

// RouteResult is the outcome of routing one lookup.
type RouteResult struct {
	// OK reports whether the lookup reached an online responsible peer.
	OK bool
	// Responsible is the online peer the lookup terminated at.
	Responsible netsim.PeerID
	// Hops is the number of routing messages spent, including the hop to
	// the entry peer when the querying peer is not part of the DHT.
	Hops int
}

// MaintenanceStats reports one round of routing-table probing.
type MaintenanceStats struct {
	// Probes is the number of probe messages sent (class
	// stats.MsgMaintenance).
	Probes int
	// Stale is how many probes hit an offline entry.
	Stale int
	// Repaired is how many stale entries were replaced with a live peer.
	// Repairs are free in message terms: the paper assumes replacement
	// information is piggybacked on queries.
	Repaired int
}

// randomOnlineOf returns a random online member of peers, or ok=false if
// all are offline.
func randomOnlineOf(net *netsim.Network, peers []netsim.PeerID, rng *rand.Rand) (netsim.PeerID, bool) {
	if len(peers) == 0 {
		return 0, false
	}
	for tries := 0; tries < 32; tries++ {
		p := peers[rng.IntN(len(peers))]
		if net.Online(p) {
			return p, true
		}
	}
	start := rng.IntN(len(peers))
	for i := range peers {
		p := peers[(start+i)%len(peers)]
		if net.Online(p) {
			return p, true
		}
	}
	return 0, false
}
