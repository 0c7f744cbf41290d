package simcore

import (
	"testing"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
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
	pi, net, rng := testIndex(b, IndexConfig{KeyTtl: 1 << 30, PeerCapacity: 4096}, 99)
	return pi, net, rng
}
