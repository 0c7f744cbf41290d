package gossip

import (
	"context"
	"fmt"
	"testing"

	"pdht/internal/transport"
)

// benchSizes are the membership table sizes the table benchmarks run at:
// a small cluster, a medium one, and the chaos harness's headline fleet.
var benchSizes = []int{64, 256, 1000}

// ackAll is a peer that answers every message at once with an empty ack.
func ackAll(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
	return transport.Gossip{Kind: transport.GossipAck, From: addr}, true, nil
}

// benchMembers returns n alive claims in address order, as a full-state
// payload carries them.
func benchMembers(n int) []transport.PeerState {
	updates := make([]transport.PeerState, n)
	for i := range updates {
		updates[i] = transport.PeerState{Addr: fmt.Sprintf("m%04d", i), Status: uint8(StatusAlive), Incarnation: 1}
	}
	return updates
}

// benchService is a service at "self" that knows n other alive members.
// quiet spends every pending claim first, so nothing is left to piggyback.
func benchService(b *testing.B, n int, quiet bool) *Service {
	b.Helper()
	s, err := New(Config{Addr: "self"}, ackAll)
	if err != nil {
		b.Fatal(err)
	}
	s.merge(benchMembers(n))
	if quiet {
		s.mu.Lock()
		for len(s.takePiggybackLocked()) > 0 {
		}
		s.mu.Unlock()
	}
	return s
}

// BenchmarkGossipRound measures one protocol period — piggyback selection,
// the direct probe, and the reply merge — against an instantly-acking
// peer, over growing membership tables. This is the steady-state cost the
// membership layer adds per ProbeInterval, the baseline future protocol
// changes are compared against. The quiet case has no claim left to
// piggyback, the state of a cluster whose membership has settled.
func BenchmarkGossipRound(b *testing.B) {
	for _, quiet := range []bool{false, true} {
		for _, n := range []int{8, 64, 512} {
			name := fmt.Sprintf("members=%d", n)
			if quiet {
				name = "quiet/" + name
			}
			b.Run(name, func(b *testing.B) {
				s := benchService(b, n, quiet)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.probeRound()
				}
			})
		}
	}
}

// BenchmarkMerge measures one alive-set change folded into a table of n
// members: one member alternately dies and comes back at a higher
// incarnation, so every merge bumps the version, reshuffles the probe ring
// and renders the alive list.
func BenchmarkMerge(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			s := benchService(b, n, false)
			claim := []transport.PeerState{{Addr: "m0000"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				claim[0].Status = uint8(StatusDead) * uint8(1-i%2)
				claim[0].Incarnation = uint64(i + 2)
				s.merge(claim)
			}
		})
	}
}

// BenchmarkSyncNoop measures an inbound anti-entropy exchange that changes
// nothing: the peer's full state equals ours, so the cost is the merge's
// lookups plus rendering our full state for the reply.
func BenchmarkSyncNoop(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			s := benchService(b, n, true)
			msg := transport.Gossip{
				Kind: transport.GossipSync, From: "m0000", Full: true,
				Updates: append(benchMembers(n), transport.PeerState{Addr: "self"}),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.HandleMessage(msg); !ok {
					b.Fatal("sync refused")
				}
			}
		})
	}
}

// BenchmarkBoot measures a table growing to n members one join at a time,
// each join a merge that changes the alive set.
func BenchmarkBoot(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			joins := benchMembers(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(Config{Addr: "self"}, ackAll)
				if err != nil {
					b.Fatal(err)
				}
				for j := range joins {
					s.merge(joins[j : j+1])
				}
			}
		})
	}
}

// BenchmarkProbeTick measures what the protocol loop does on each probe
// tick: the suspicion and retention sweep over the table, then one probe
// round against an instantly-acking peer.
func BenchmarkProbeTick(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			s := benchService(b, n, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.expireSuspects()
				s.probeRound()
			}
		})
	}
}
