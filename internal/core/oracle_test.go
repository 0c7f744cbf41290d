package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"pdht/internal/keyspace"
)

// sweepCache is the cache as it was before it kept an expiry order: a bare
// map, with every eviction and every collection a sweep over all of it. It
// is the reference the heap-backed Cache is checked against, op for op. The
// one departure from the old code is the pinned-entry rule of Put's doc
// comment, where the old sweep "evicted" a key that was not there.
type sweepCache struct {
	capacity int
	entries  map[keyspace.Key]sweepEntry
	muts     []Mutation
}

type sweepEntry struct {
	value   Value
	expires int
}

func newSweepCache(capacity int) *sweepCache {
	return &sweepCache{capacity: capacity, entries: make(map[keyspace.Key]sweepEntry)}
}

func (c *sweepCache) notify(kind MutationKind, key keyspace.Key, value Value, expires int) {
	c.muts = append(c.muts, Mutation{Kind: kind, Key: key, Value: value, Expires: expires})
}

// expire deletes key if it has lapsed by now and reports whether it did.
func (c *sweepCache) expire(key keyspace.Key, now int) bool {
	e := c.entries[key]
	if e.expires > now {
		return false
	}
	delete(c.entries, key)
	c.notify(MutExpire, key, e.value, e.expires)
	return true
}

func (c *sweepCache) Get(key keyspace.Key, now int) (Value, bool) {
	e, ok := c.entries[key]
	if !ok || c.expire(key, now) {
		return 0, false
	}
	return e.value, true
}

func (c *sweepCache) Put(key keyspace.Key, value Value, expires, now int) bool {
	if expires <= now {
		return false
	}
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.capacity {
		if !c.evictOne(expires, now) {
			return false
		}
	}
	c.entries[key] = sweepEntry{value: value, expires: expires}
	c.notify(MutInsert, key, value, expires)
	return true
}

func (c *sweepCache) evictOne(incomingExpires, now int) bool {
	var victim keyspace.Key
	best := math.MaxInt
	collected := false
	for k, e := range c.entries {
		if c.expire(k, now) {
			collected = true
			continue
		}
		if e.expires < best || (e.expires == best && k < victim) {
			best = e.expires
			victim = k
		}
	}
	if collected {
		return true
	}
	if best > incomingExpires {
		return false
	}
	if best == NeverExpires {
		return true // pinned entries only: admit over capacity, evict nothing
	}
	v := c.entries[victim]
	delete(c.entries, victim)
	c.notify(MutEvict, victim, v.value, v.expires)
	return true
}

func (c *sweepCache) Refresh(key keyspace.Key, expires, now int) bool {
	e, ok := c.entries[key]
	if !ok || c.expire(key, now) {
		return false
	}
	if expires > e.expires {
		c.entries[key] = sweepEntry{value: e.value, expires: expires}
		c.notify(MutRefresh, key, e.value, expires)
	}
	return true
}

func (c *sweepCache) Entries(now int) []Entry {
	out := []Entry{}
	for k, e := range c.entries {
		if !c.expire(k, now) {
			out = append(out, Entry{Key: k, Value: e.value, Expires: e.expires})
		}
	}
	return out
}

func (c *sweepCache) Live(now int) int { return len(c.Entries(now)) }

func (c *sweepCache) Expires(key keyspace.Key, now int) (int, bool) {
	e, ok := c.entries[key]
	if !ok || e.expires <= now {
		return 0, false
	}
	return e.expires, true
}

func sortedEntries(es []Entry) []Entry {
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	return es
}

func sortedMutations(ms []Mutation) []Mutation {
	slices.SortFunc(ms, func(a, b Mutation) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Kind, b.Kind))
	})
	return ms
}

// checkStructure holds the Cache's two halves against each other: one map
// entry per slot, each pointing at its own slot, and no slot sorting before
// its parent.
func checkStructure(t *testing.T, c *Cache) {
	t.Helper()
	if len(c.order) != len(c.entries) {
		t.Fatalf("%d slots for %d map entries", len(c.order), len(c.entries))
	}
	for i, s := range c.order {
		if pos, ok := c.entries[s.key]; !ok || pos != i {
			t.Fatalf("slot %d holds key %v, whose map entry says %d (present %v)", i, s.key, pos, ok)
		}
		if i > 0 && s.before(c.order[(i-1)/2]) {
			t.Fatalf("slot %d %+v sorts before its parent %+v", i, s, c.order[(i-1)/2])
		}
	}
}

// runCacheOps decodes ops as a stream of cache operations — first byte the
// capacity (1–64), then per op an opcode byte and the argument bytes that
// opcode takes — and applies each to a Cache and a sweepCache. After every
// op the two must have returned the same thing, emitted the same multiset
// of mutations (within one sweep the old order was the map's and the new
// one is the heap's) and hold the same stored (key, value, expires) set,
// and the Cache's structure must be intact. Keys are drawn from twice the
// capacity, so they collide and the cache fills.
func runCacheOps(t *testing.T, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	capacity := 1 + next()%64
	c, err := NewCache(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var muts []Mutation
	c.SetHook(func(m Mutation) { muts = append(muts, m) })
	ref := newSweepCache(capacity)

	now := 0
	for step := 0; len(ops) > 0; step++ {
		op := next()
		key := keyspace.Key(next() % (2 * capacity))
		var got, want any
		switch op % 8 {
		case 0, 1: // insert; TTL 0 is dead on arrival, the top of the range never expires
			expires := now + next()%64
			if op >= 224 {
				expires = NeverExpires
			}
			got, want = c.Put(key, Value(step), expires, now), ref.Put(key, Value(step), expires, now)
		case 2: // short-lived insert: as an overwrite it moves the key towards the head
			expires := now + 1 + next()%4
			got, want = c.Put(key, Value(step), expires, now), ref.Put(key, Value(step), expires, now)
		case 3:
			gv, gok := c.Get(key, now)
			wv, wok := ref.Get(key, now)
			got, want = [2]any{gv, gok}, [2]any{wv, wok}
		case 4:
			expires := now + next()%64
			got, want = c.Refresh(key, expires, now), ref.Refresh(key, expires, now)
		case 5:
			got, want = c.Live(now), ref.Live(now)
		case 6:
			w := sortedEntries(ref.Entries(now))
			var wKeys []keyspace.Key
			for _, e := range w {
				wKeys = append(wKeys, e.Key)
			}
			if g := sortedEntries(c.Entries(now)); !slices.Equal(g, w) {
				t.Fatalf("step %d: Entries(%d) = %v, reference %v", step, now, g, w)
			}
			if g := c.Keys(now); !slices.Equal(slices.Sorted(slices.Values(g)), wKeys) {
				t.Fatalf("step %d: Keys(%d) = %v, reference %v", step, now, g, wKeys)
			}
		case 7:
			now += next() % 8
			ge, gok := c.Expires(key, now)
			we, wok := ref.Expires(key, now)
			got, want = [2]any{ge, gok}, [2]any{we, wok}
		}
		if got != want {
			t.Fatalf("step %d: op %d on key %v at round %d returned %v, reference %v", step, op%8, key, now, got, want)
		}
		if g, w := sortedMutations(muts), sortedMutations(ref.muts); !slices.Equal(g, w) {
			t.Fatalf("step %d: op %d on key %v at round %d emitted %v, reference %v", step, op%8, key, now, g, w)
		}
		muts, ref.muts = muts[:0], ref.muts[:0]

		checkStructure(t, c)
		if len(c.order) != len(ref.entries) {
			t.Fatalf("step %d: %d stored entries, reference %d", step, len(c.order), len(ref.entries))
		}
		for _, s := range c.order {
			if e, ok := ref.entries[s.key]; !ok || e.value != s.value || e.expires != s.expires {
				t.Fatalf("step %d: stored %+v, reference %+v (present %v)", step, s, e, ok)
			}
		}
	}
}

// TestCacheMatchesFullSweep drives the heap-backed Cache and the full-sweep
// reference with the same seeded random op streams.
func TestCacheMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	for stream := 0; stream < 400; stream++ {
		ops := make([]byte, 1+rng.IntN(2000))
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		runCacheOps(t, ops)
	}
}

// FuzzCacheOps is TestCacheMatchesFullSweep over op streams the fuzzer
// writes; the seed corpus is in testdata/fuzz/FuzzCacheOps.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(runCacheOps)
}
