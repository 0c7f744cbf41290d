package node

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// benchCluster boots a 3-node cluster on the in-memory transport with a
// TTL long enough that nothing expires mid-benchmark.
func benchCluster(b *testing.B, capacity int) *Cluster {
	b.Helper()
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Second
	cfg.KeyTtl = 1 << 20
	cfg.Capacity = capacity
	// Membership beats fast so boot converges quickly; one second of
	// round has nothing to do with how often the failure detector ticks.
	cfg.GossipInterval = 10 * time.Millisecond
	c, err := NewCluster(transport.NewMemory(), 3, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkNodeQuery measures the live serve path — the node-level
// baseline future transport or selection changes are compared against.
// The hit variant is the steady-state hot path (route + index probe +
// refresh); the miss variant pays the full selection loop (failed index
// search, broadcast fan-out, replica insert) on a fresh key each
// iteration.
func BenchmarkNodeQuery(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := benchCluster(b, 1024)
		defer c.Close()
		const key = 424242
		mustPublish(b, c.Node(1), key, 7)
		if res := mustQuery(b, c.Node(0), key); !res.Answered {
			b.Fatal("warm-up query unanswered")
		}
		if res := mustQuery(b, c.Node(0), key); !res.FromIndex {
			b.Fatal("warm-up repeat did not hit the index")
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := c.Node(0).Query(ctx, key); err != nil || !res.FromIndex {
				b.Fatal("steady-state query missed the index")
			}
		}
	})

	b.Run("miss", func(b *testing.B) {
		c := benchCluster(b, 1<<21)
		defer c.Close()
		keys := make([]uint64, b.N)
		for i := range keys {
			keys[i] = uint64(keyspace.HashString("bench-miss:" + strconv.Itoa(i)))
			mustPublish(b, c.Node(1), keys[i], uint64(i))
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := c.Node(0).Query(ctx, keys[i]); err != nil || !res.Answered || res.FromIndex {
				b.Fatalf("iteration %d: want a broadcast-answered miss, got %+v", i, res)
			}
		}
	})
}

// BenchmarkClientQueryMany prices the batched client API against N unary
// queries for the same warm keys — the amortize-per-request claim of the
// API redesign in numbers. The batch variant issues one OpBatch per
// destination peer (at most 2 here: three members, one of them the
// caller); the unary variant pays one index probe plus one refresh RPC per
// key. Round-trip and allocation counts per 32-key batch are the headline.
func BenchmarkClientQueryMany(b *testing.B) {
	const batch = 32
	warm := func(b *testing.B, c *Cluster) []uint64 {
		b.Helper()
		keys := make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(keyspace.HashString("batch-bench:" + strconv.Itoa(i)))
			mustPublish(b, c.Node(1), keys[i], uint64(i))
			if res := mustQuery(b, c.Node(0), keys[i]); !res.Answered {
				b.Fatal("warm-up query unanswered")
			}
		}
		return keys
	}

	b.Run("batch=32", func(b *testing.B) {
		c := benchCluster(b, 1024)
		defer c.Close()
		keys := warm(b, c)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := c.Node(0).QueryMany(ctx, keys)
			if err != nil {
				b.Fatal(err)
			}
			for j := range results {
				if !results[j].FromIndex {
					b.Fatalf("key %d missed the warm index", keys[j])
				}
			}
		}
	})

	b.Run("unary=32", func(b *testing.B) {
		c := benchCluster(b, 1024)
		defer c.Close()
		keys := warm(b, c)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, key := range keys {
				if res, err := c.Node(0).Query(ctx, key); err != nil || !res.FromIndex {
					b.Fatalf("key %d missed the warm index", key)
				}
			}
		}
	})
}

// BenchmarkQueryManyWide runs 256-key batches over a 64-member memory
// cluster, where a batch spreads over every member: it prices the
// per-destination grouping of QueryMany and PublishMany at a width the
// 3-member fixture never reaches.
func BenchmarkQueryManyWide(b *testing.B) {
	const members, batch = 64, 256
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Second
	cfg.KeyTtl = 1 << 20
	cfg.Capacity = 4 * batch
	cfg.GossipInterval = 50 * time.Millisecond
	mem := transport.NewMemory()
	c, err := NewCluster(mem, members, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]uint64, batch)
	pairs := make([]KV, batch)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("wide-bench:" + strconv.Itoa(i)))
		pairs[i] = KV{Key: keys[i], Value: uint64(i)}
		mustPublish(b, c.Node(1+i%(members-1)), keys[i], uint64(i))
	}
	// Warm: the misses broadcast and insert every key at its set.
	if _, err := c.Node(0).QueryMany(ctx, keys); err != nil {
		b.Fatal(err)
	}

	b.Run("querymany", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, err := c.Node(0).QueryMany(ctx, keys)
			if err != nil {
				b.Fatal(err)
			}
			for j := range results {
				if !results[j].FromIndex {
					b.Fatalf("key %d missed the warm index", keys[j])
				}
			}
		}
	})

	b.Run("publishmany", func(b *testing.B) {
		client, err := DialRemote(ctx, mem, RemoteConfig{Seeds: []string{c.Addr(0)}, KeyTtl: cfg.KeyTtl})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		for deadline := time.Now().Add(10 * time.Second); len(client.view.Load().members) < members; {
			if time.Now().After(deadline) {
				b.Fatal("client never saw the whole cluster")
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.PublishMany(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandoff measures the planning pass a view change triggers: for
// every cached entry, recompute the replica group under the old and new
// views and decide what this node owes whom. This is the membership
// subsystem's burst cost — it runs once per confirmed change, over the
// whole cache — so it lands with a baseline next to BenchmarkNodeQuery.
// The pushes themselves are batched OpInserts, priced by the batch
// benchmarks.
func BenchmarkHandoff(b *testing.B) {
	members := make([]string, 6)
	for i := range members {
		members[i] = "node-" + strconv.Itoa(i)
	}
	old := buildView(members, 3)
	survivors := append(append([]string(nil), members[:3]...), members[4:]...)
	next := buildView(survivors, 3)
	for _, size := range []int{256, 4096} {
		b.Run("entries="+strconv.Itoa(size), func(b *testing.B) {
			entries := make([]core.Entry, size)
			for i := range entries {
				entries[i] = core.Entry{
					Key:     keyspace.HashString("handoff-bench:" + strconv.Itoa(i)),
					Value:   core.Value(i),
					Expires: 1000,
				}
			}
			// Sanity: the transition must actually move keys, from every
			// survivor's standpoint collectively.
			moved := 0
			for _, self := range survivors {
				moved += len(planPushes(old, next, self, entries, 0).addrs)
			}
			if moved == 0 {
				b.Fatal("view transition moved no keys; the benchmark is vacuous")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planPushes(old, next, survivors[i%len(survivors)], entries, 0)
			}
		})
	}
	// What one view change costs a member of a large fleet: snapshot the
	// whole cache (under Node.mu in applyMembership) and plan over it. The
	// member holds 1,024 keys of its own replica sets and one peer joins a
	// 1000-member ring, so most entries do not move and planPushes skips
	// them.
	b.Run("scan/n=1000/entries=1024", func(b *testing.B) {
		members := make([]string, 1000)
		for i := range members {
			members[i] = fmt.Sprintf("peer-%04d", i)
		}
		old := buildView(members, 3)
		next := old.applyDelta([]string{"peer-1000"}, nil, 1)
		self := members[0]
		cache, err := core.NewCache(1024)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; cache.Live(0) < 1024; i++ {
			k := keyspace.HashString("handoff-scan:" + strconv.Itoa(i))
			if slices.Contains(old.Replicas(k), self) {
				cache.Put(k, core.Value(i), 1000, 0)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			planPushes(old, next, self, cache.Entries(0), 0)
		}
	})
}

// BenchmarkViewDelta pins the refactor that makes thousand-node fleets
// viable: applying a membership delta to an installed view versus
// rebuilding the view from scratch. Delta application is a single sorted
// merge over the vnode array (O(n) memcpy, no hashing, no re-sort);
// the rebuild re-hashes and re-sorts every member. The gap is the per-node
// cost of every membership event across a large fleet.
func BenchmarkViewDelta(b *testing.B) {
	for _, n := range []int{128, 1000} {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("peer-%04d", i)
		}
		base := buildView(members, 3)
		joined := []string{fmt.Sprintf("peer-%04d", n)}
		left := []string{members[n/2]}
		alive := make([]string, 0, n)
		for _, m := range members {
			if m != left[0] {
				alive = append(alive, m)
			}
		}
		alive = append(alive, joined...)
		sort.Strings(alive)
		// Sanity: the delta must land on the ring a rebuild produces.
		if dv := base.applyDelta(joined, left, 2); dv == nil || dv.hash != buildView(alive, 3).hash {
			b.Fatal("delta view diverged from rebuild")
		}
		b.Run(fmt.Sprintf("delta/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if base.applyDelta(joined, left, 2) == nil {
					b.Fatal("applyDelta returned nil")
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildView(alive, 3)
			}
		})
	}
}
