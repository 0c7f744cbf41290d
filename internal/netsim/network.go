// Package netsim is the in-memory network fabric underneath the simulator:
// a population of peers with online/offline state, a round clock (one round
// = one second, as in the paper), and message accounting by class.
//
// The paper's unit of cost is messages sent per round; latency, bandwidth
// and loss are outside its model. Accordingly, netsim does not deliver
// payloads asynchronously — overlay algorithms walk the topology directly
// and report every message they would have sent to the network's counters,
// which is exactly the quantity Figures 1–4 plot. Network is the
// population; PeerID names one peer within it.
package netsim

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/stats"
)

// PeerID identifies a peer: an index in [0, Size()).
type PeerID int

// Network is the peer population. It is not safe for concurrent mutation;
// the simulator is round-driven and single-threaded by design so that runs
// are reproducible from a seed.
type Network struct {
	online   []bool
	nOnline  int
	round    int
	counters Counters
}

// New returns a network of n peers, all online.
func New(n int) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: network size %d must be positive", n))
	}
	online := make([]bool, n)
	for i := range online {
		online[i] = true
	}
	return &Network{online: online, nOnline: n}
}

// Size returns the total number of peers, online or not.
func (nw *Network) Size() int { return len(nw.online) }

// Online reports whether p is currently online.
func (nw *Network) Online(p PeerID) bool {
	nw.check(p)
	return nw.online[p]
}

// SetOnline flips p's liveness.
func (nw *Network) SetOnline(p PeerID, on bool) {
	nw.check(p)
	if nw.online[p] == on {
		return
	}
	nw.online[p] = on
	if on {
		nw.nOnline++
	} else {
		nw.nOnline--
	}
}

// Peers returns every peer of the network, 0 through Size()−1, in a slice
// the caller owns.
func (nw *Network) Peers() []PeerID {
	out := make([]PeerID, len(nw.online))
	for i := range out {
		out[i] = PeerID(i)
	}
	return out
}

// OnlineCount returns the number of peers currently online.
func (nw *Network) OnlineCount() int { return nw.nOnline }

// Round returns the current round number, starting at 0.
func (nw *Network) Round() int { return nw.round }

// AdvanceRound moves the clock forward one round and returns the new round.
func (nw *Network) AdvanceRound() int {
	nw.round++
	return nw.round
}

// Send records n messages of the given class. Every overlay algorithm calls
// this for each message it would have put on the wire.
func (nw *Network) Send(class stats.MsgClass, n int64) {
	nw.counters.Add(class, n)
}

// Counters exposes the cumulative message counters.
func (nw *Network) Counters() *Counters { return &nw.counters }

// RandomOnline returns a uniformly random online peer. ok is false if the
// whole network is offline.
func (nw *Network) RandomOnline(rng *rand.Rand) (PeerID, bool) {
	if nw.nOnline == 0 {
		return 0, false
	}
	// Rejection sampling: with realistic online fractions (≥ a few
	// percent) this terminates in a handful of draws; the deterministic
	// fallback below guards the pathological case.
	for tries := 0; tries < 64; tries++ {
		p := PeerID(rng.IntN(len(nw.online)))
		if nw.online[p] {
			return p, true
		}
	}
	start := rng.IntN(len(nw.online))
	for i := 0; i < len(nw.online); i++ {
		p := PeerID((start + i) % len(nw.online))
		if nw.online[p] {
			return p, true
		}
	}
	return 0, false
}

func (nw *Network) check(p PeerID) {
	if p < 0 || int(p) >= len(nw.online) {
		panic(fmt.Sprintf("netsim: peer %d out of range [0,%d)", p, len(nw.online)))
	}
}
