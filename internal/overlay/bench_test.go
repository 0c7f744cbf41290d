package overlay

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func benchGraph(b *testing.B, n int) (*Graph, *Store, *rand.Rand) {
	b.Helper()
	net := netsim.New(n)
	rng := rand.New(rand.NewPCG(1, 2))
	g, err := NewRandomGraph(net, net.Peers(), 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, NewStore(net), rng
}

func BenchmarkFlood(b *testing.B) {
	g, _, _ := benchGraph(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Flood(netsim.PeerID(i%2000), 32, nil, stats.MsgBroadcast)
	}
}

func BenchmarkRandomWalkSearch(b *testing.B) {
	g, store, rng := benchGraph(b, 2000)
	key := keyspace.HashString("bench")
	if _, err := store.ReplicateRandom(key, 0, 100, rng); err != nil {
		b.Fatal(err)
	}
	match := store.OnlineHolderMatch(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.RandomWalks(netsim.PeerID(i%2000), 16, 100, match, rng, stats.MsgBroadcast)
		if !res.Found {
			b.Fatal("walks missed 5% replication")
		}
	}
}

func BenchmarkSearchWithFallback(b *testing.B) {
	g, store, rng := benchGraph(b, 2000)
	key := keyspace.HashString("bench2")
	if _, err := store.ReplicateRandom(key, 0, 100, rng); err != nil {
		b.Fatal(err)
	}
	match := store.OnlineHolderMatch(key)
	cfg := SearchConfig{Walkers: 16, FloodTTL: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, _ := g.Search(netsim.PeerID(i%2000), cfg, 100, match, rng)
		if !found {
			b.Fatal("search failed")
		}
	}
}
