package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pdht/internal/keyspace"
)

func k(s string) keyspace.Key { return keyspace.HashString(s) }

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewCache(-1); err == nil {
		t.Error("negative capacity accepted")
	}
	c, err := NewCache(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 5 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestCachePutGet(t *testing.T) {
	c, _ := NewCache(10)
	if !c.Put(k("a"), 42, 100, 0) {
		t.Fatal("Put rejected")
	}
	v, ok := c.Get(k("a"), 50)
	if !ok || v != 42 {
		t.Errorf("Get = %v,%v", v, ok)
	}
	if _, ok := c.Get(k("missing"), 50); ok {
		t.Error("found a key never stored")
	}
}

func TestCacheExpiry(t *testing.T) {
	c, _ := NewCache(10)
	c.Put(k("a"), 1, 100, 0)
	if _, ok := c.Get(k("a"), 99); !ok {
		t.Error("entry unreadable just before expiry")
	}
	if _, ok := c.Get(k("a"), 100); ok {
		t.Error("entry readable at its expiry round")
	}
	// The expired Get collected the entry: it stays gone even for reads
	// at earlier rounds (lazy collection is one-way).
	if _, ok := c.Get(k("a"), 0); ok {
		t.Error("collected entry came back")
	}
	if c.Live(0) != 0 {
		t.Errorf("Live = %d, want 0", c.Live(0))
	}
}

func TestCachePutRejectsDeadOnArrival(t *testing.T) {
	c, _ := NewCache(10)
	if c.Put(k("a"), 1, 5, 5) {
		t.Error("accepted an entry already expired")
	}
	if c.Put(k("a"), 1, 4, 5) {
		t.Error("accepted an entry from the past")
	}
}

func TestCacheEvictsSoonestExpiring(t *testing.T) {
	c, _ := NewCache(3)
	c.Put(k("a"), 1, 100, 0)
	c.Put(k("b"), 2, 50, 0) // soonest to lapse → first victim
	c.Put(k("c"), 3, 150, 0)
	if !c.Put(k("d"), 4, 120, 0) {
		t.Fatal("Put into full cache rejected despite older victim")
	}
	if _, ok := c.Get(k("b"), 0); ok {
		t.Error("victim b still present")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k(key), 0); !ok {
			t.Errorf("entry %s lost", key)
		}
	}
}

func TestCacheRejectsWorseThanVictims(t *testing.T) {
	c, _ := NewCache(2)
	c.Put(k("a"), 1, 100, 0)
	c.Put(k("b"), 2, 100, 0)
	// The incoming entry would expire before every stored entry: keeping
	// the stored ones answers more future queries.
	if c.Put(k("c"), 3, 10, 0) {
		t.Error("accepted an entry worse than all victims")
	}
	if c.Live(0) != 2 {
		t.Errorf("Live = %d, want 2", c.Live(0))
	}
}

func TestCacheEvictionPrefersExpired(t *testing.T) {
	c, _ := NewCache(2)
	c.Put(k("a"), 1, 10, 0)
	c.Put(k("b"), 2, 100, 0)
	// At round 20, a is expired; inserting c must reclaim a's slot and
	// keep b.
	if !c.Put(k("c"), 3, 50, 20) {
		t.Fatal("Put rejected despite expired entry")
	}
	if _, ok := c.Get(k("b"), 20); !ok {
		t.Error("live entry b evicted while an expired one existed")
	}
}

func TestCacheOverwriteDoesNotEvict(t *testing.T) {
	c, _ := NewCache(2)
	c.Put(k("a"), 1, 100, 0)
	c.Put(k("b"), 2, 100, 0)
	if !c.Put(k("a"), 9, 200, 0) {
		t.Fatal("overwrite rejected")
	}
	if c.Live(0) != 2 {
		t.Errorf("Live = %d after overwrite, want 2", c.Live(0))
	}
	if v, _ := c.Get(k("a"), 0); v != 9 {
		t.Errorf("overwritten value = %v", v)
	}
}

func TestCacheRefresh(t *testing.T) {
	c, _ := NewCache(5)
	c.Put(k("a"), 1, 100, 0)
	if !c.Refresh(k("a"), 300, 50) {
		t.Fatal("Refresh of live entry failed")
	}
	if exp, ok := c.Expires(k("a"), 50); !ok || exp != 300 {
		t.Errorf("Expires = %v,%v want 300", exp, ok)
	}
	// Refresh never shortens a TTL.
	c.Refresh(k("a"), 200, 50)
	if exp, _ := c.Expires(k("a"), 50); exp != 300 {
		t.Errorf("Refresh shortened expiry to %d", exp)
	}
	if c.Refresh(k("missing"), 400, 50) {
		t.Error("refreshed a missing key")
	}
	if c.Refresh(k("a"), 400, 300) {
		t.Error("refreshed an expired entry")
	}
}

func TestCacheNeverExpires(t *testing.T) {
	c, _ := NewCache(2)
	c.Put(k("a"), 1, NeverExpires, 0)
	if _, ok := c.Get(k("a"), 1<<40); !ok {
		t.Error("NeverExpires entry expired")
	}
}

// TestCachePinnedEntries is the rule in Put's doc comment: a never-expiring
// entry is never a victim, a cache full of them admits one more beyond its
// capacity without reporting an eviction it did not make, and a finite-TTL
// entry among them is the victim as usual. (The full sweep this replaces
// picked no victim here, then "evicted" key 0 — a phantom MutEvict at the
// hook — and grew all the same.)
func TestCachePinnedEntries(t *testing.T) {
	c, _ := NewCache(2)
	var muts []Mutation
	c.SetHook(func(m Mutation) { muts = append(muts, m) })
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if !c.Put(k(name), Value(i), NeverExpires, 0) {
			t.Fatalf("pinned put %d refused", i)
		}
	}
	if got := c.Live(1 << 40); got != 5 {
		t.Errorf("Live = %d, want all 5 pinned entries", got)
	}
	for _, m := range muts {
		if m.Kind != MutInsert {
			t.Errorf("pinned puts emitted %+v, want inserts only", m)
		}
	}
	if c.Put(k("finite"), 9, 100, 0) {
		t.Error("finite-TTL entry accepted by a cache of pinned entries, all of which outlast it")
	}

	c, _ = NewCache(3)
	muts = nil
	c.SetHook(func(m Mutation) { muts = append(muts, m) })
	c.Put(k("a"), 1, NeverExpires, 0)
	c.Put(k("b"), 2, 50, 0)
	c.Put(k("c"), 3, NeverExpires, 0)
	if !c.Put(k("d"), 4, NeverExpires, 0) {
		t.Fatal("pinned put refused although a finite-TTL victim exists")
	}
	if last := muts[len(muts)-2]; last.Kind != MutEvict || last.Key != k("b") {
		t.Errorf("eviction was %+v, want MutEvict of b", last)
	}
	if _, ok := c.Get(k("b"), 0); ok || c.Live(0) != 3 {
		t.Errorf("finite-TTL entry b survived among pinned ones (Live = %d)", c.Live(0))
	}
}

// Property: a cache never reports more live entries than its capacity, and
// Get never returns an expired entry.
func TestCacheInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	f := func() bool {
		c, _ := NewCache(1 + rng.IntN(8))
		now := 0
		for op := 0; op < 200; op++ {
			key := keyspace.Key(rng.Uint64N(16)) // small space → collisions
			switch rng.IntN(4) {
			case 0, 1:
				c.Put(key, Value(op), now+1+rng.IntN(50), now)
			case 2:
				if _, ok := c.Get(key, now); ok {
					if exp, ok2 := c.Expires(key, now); !ok2 || exp <= now {
						return false
					}
				}
			case 3:
				now += rng.IntN(10)
			}
			if c.Live(now) > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEntriesSnapshotPreservesTTLAcrossReinsert is the handoff contract: a
// snapshot taken with Entries, re-inserted into another cache with each
// entry's remaining TTL, must reproduce the original expiry rounds — the
// paper's expiry semantics survive a key transfer between peers.
func TestEntriesSnapshotPreservesTTLAcrossReinsert(t *testing.T) {
	src, _ := NewCache(8)
	now := 100
	src.Put(k("a"), 1, now+5, now)
	src.Put(k("b"), 2, now+50, now)
	src.Put(k("c"), 3, now+2, now)
	src.Put(k("dead"), 4, now+1, now)

	later := now + 1 // "dead" lapses here
	snap := src.Entries(later)
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3 (expired entry must be collected)", len(snap))
	}

	dst, _ := NewCache(8)
	for _, e := range snap {
		// The receiving peer computes its own expiry from the remaining
		// TTL, exactly like an OpInsert with TTL = Expires−now.
		if !dst.Put(e.Key, e.Value, later+(e.Expires-later), later) {
			t.Fatalf("re-insert of %v rejected", e.Key)
		}
	}
	for _, e := range snap {
		exp, ok := dst.Expires(e.Key, later)
		if !ok || exp != e.Expires {
			t.Fatalf("key %v expires at %d after round trip, want %d", e.Key, exp, e.Expires)
		}
		v, ok := dst.Get(e.Key, later)
		if !ok || v != e.Value {
			t.Fatalf("key %v = %v after round trip, want %v", e.Key, v, e.Value)
		}
	}
	// And the snapshot itself must not have disturbed the source.
	if got := src.Live(later); got != 3 {
		t.Fatalf("source has %d live entries after snapshot, want 3", got)
	}
}
