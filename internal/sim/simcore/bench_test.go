package simcore

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func BenchmarkIndexLookupHit(b *testing.B) {
	pi, net, rng := benchIndex(b)
	key := keyspace.HashString("hot")
	pi.Insert(0, key, 1)
	_ = net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := pi.Lookup(netsim.PeerID(i%256), key)
		if !lr.Hit {
			b.Fatal("miss on a hot key")
		}
	}
	_ = rng
}

func BenchmarkIndexLookupMiss(b *testing.B) {
	pi, _, rng := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := pi.Lookup(netsim.PeerID(i%256), keyspace.Key(rng.Uint64()))
		if lr.Hit {
			b.Fatal("hit on a random key")
		}
	}
}

func BenchmarkIndexInsert(b *testing.B) {
	pi, _, rng := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi.Insert(netsim.PeerID(i%256), keyspace.Key(rng.Uint64()), core.Value(i))
	}
}

func benchIndex(b *testing.B) (*PartialIndex, *netsim.Network, interface{ Uint64() uint64 }) {
	b.Helper()
	pi, net, rng := testIndex(b, IndexConfig{
		KeyTtl: 1 << 30, PeerCapacity: 4096,
		FloodOnMiss: true, ResetTTLOnHit: true,
	}, 99)
	return pi, net, rng
}

func benchSubnet(b *testing.B, members int) (*Subnet, *netsim.Network, *rand.Rand) {
	b.Helper()
	net := netsim.New(members * 3)
	rng := rand.New(rand.NewPCG(1, 2))
	s, err := NewSubnet(net, membersRange(members), 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	return s, net, rng
}

func BenchmarkSubnetFlood(b *testing.B) {
	s, _, _ := benchSubnet(b, 50)
	origin := s.Members()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Flood(origin, nil, stats.MsgReplicaFlood)
	}
}
