package core

import (
	"strconv"
	"testing"

	"pdht/internal/keyspace"
)

func BenchmarkCachePutGet(b *testing.B) {
	c, err := NewCache(100)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]keyspace.Key, 256)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		c.Put(key, Value(i), i+100, i)
		c.Get(key, i)
	}
}

// benchKey spreads i over the key space.
func benchKey(i int) keyspace.Key { return keyspace.Key(uint64(i) * 0x9e3779b97f4a7c15) }

// fullCache returns a cache of the given capacity holding that many live
// entries, so that every Put of a new key evicts.
func fullCache(tb testing.TB, capacity int) *Cache {
	c, err := NewCache(capacity)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		c.Put(benchKey(i), Value(i), 1000+i, 0)
	}
	return c
}

// BenchmarkCachePutEvict is the insert the live node pays on every resolved
// miss once its cache is full (bench/'s core.cache_put_evict_ns): a new key
// with a later deadline than anything stored, so the head is evicted and
// the newcomer is never the victim. 100 is the simulator's stor, 65536 the
// benchmark cluster's Capacity.
func BenchmarkCachePutEvict(b *testing.B) {
	for _, capacity := range []int{100, 4096, 8192, 65536} {
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			c := fullCache(b, capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(benchKey(capacity+i), 1, 1<<20+i, 1)
			}
		})
	}
}

// TestCachePutEvictAllocs gates the steady state of that insert at zero
// allocations: the map and the expiry order both reuse the room the evicted
// entry left.
func TestCachePutEvictAllocs(t *testing.T) {
	const capacity = 4096
	c := fullCache(t, capacity)
	i := 0
	put := func() {
		if !c.Put(benchKey(capacity+i), 1, 1<<20+i, 1) {
			t.Fatal("evicting Put refused")
		}
		i++
	}
	if allocs := testing.AllocsPerRun(2*capacity, put); allocs != 0 {
		t.Errorf("evicting Put allocates %.2f times per call, want 0", allocs)
	}
	if got := c.Live(1); got != capacity {
		t.Errorf("Live = %d after evicting puts, want capacity %d", got, capacity)
	}
}
