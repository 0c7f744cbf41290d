package dht

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
)

func benchTrie(b *testing.B, nActive int) (*Trie, *rand.Rand) {
	b.Helper()
	net := netsim.New(nActive)
	rng := rand.New(rand.NewPCG(1, 2))
	trie, err := NewTrie(net, activeRange(nActive), TrieConfig{GroupSize: 16, Env: 1.0 / 14.0}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return trie, rng
}

func BenchmarkTrieRoute(b *testing.B) {
	trie, rng := benchTrie(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := trie.Route(netsim.PeerID(i%4096), keyspace.Key(rng.Uint64()), rng)
		if !res.OK {
			b.Fatal("route failed")
		}
	}
}

func BenchmarkTrieMaintainRound(b *testing.B) {
	trie, rng := benchTrie(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.Maintain(rng)
	}
}

func BenchmarkTrieReplicaGroup(b *testing.B) {
	trie, rng := benchTrie(b, 4096)
	keys := make([]keyspace.Key, 1024)
	for i := range keys {
		keys[i] = keyspace.Key(rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.ReplicaGroup(keys[i%len(keys)])
	}
}
