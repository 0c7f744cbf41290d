// Package core is the paper's index storage, one peer's worth: Cache, a
// capacity-bounded key→value map in which every entry carries an expiration
// round. Keys enter when a broadcast search resolves them, live for keyTtl
// rounds, have that lease reset whenever the storing peer is queried for
// them, and silently fall out when they stop being queried (Section 5) — so
// exactly the keys worth indexing, those queried at least about once per
// keyTtl, stay, with no global coordination.
//
// Beside the map the Cache keeps its entries in (expires, key) order — an
// indexed binary min-heap — so the next entry to lapse, the eviction victim
// and the "would this insert be refused?" answer all sit at the head, and
// what a sweep collects and in which order is a function of the contents
// alone, never of map iteration.
//
// Both trees hold their index in it: a live node (internal/node) owns one
// Cache, and the simulator (internal/sim/simcore) one per simulated peer.
// The selection algorithm that decides what to Put and when to Refresh
// lives with its substrate, not here; this package imports only keyspace.
package core

import (
	"fmt"
	"math"

	"pdht/internal/keyspace"
)

// Value is the payload stored under an index key. The simulator stores
// article identifiers/version numbers; real deployments would store
// pointers to content holders.
type Value uint64

// NeverExpires is the expiry of entries in a TTL-free index (the
// index-everything baseline).
const NeverExpires = math.MaxInt

// slot is one stored entry at its position in the expiry order.
type slot struct {
	expires int
	key     keyspace.Key
	value   Value
}

// before is the total order of the cache: earlier lapse first, ties broken
// by key. Eviction victims and sweep order are defined by it.
func (s slot) before(o slot) bool {
	return s.expires < o.expires || (s.expires == o.expires && s.key < o.key)
}

// MutationKind labels one cache state change for the mutation hook.
type MutationKind uint8

const (
	// MutInsert: a key was stored (or overwritten) until Expires.
	MutInsert MutationKind = iota + 1
	// MutRefresh: a live entry's expiry was extended to Expires.
	MutRefresh
	// MutExpire: an expired entry was collected (lazily on sight, or by a
	// Live/Keys/Entries sweep).
	MutExpire
	// MutEvict: a live entry was evicted to make room for an insert.
	MutEvict
)

// Mutation describes one cache state change: what happened to which key,
// and — for inserts and refreshes — the expiry round the entry now carries.
type Mutation struct {
	Kind    MutationKind
	Key     keyspace.Key
	Value   Value
	Expires int
}

// SetHook installs fn to observe every cache mutation: inserts, refreshes
// that actually extended an expiry, expirations and capacity evictions.
// This is the write-through seam of the persistence plane (internal/store):
// a node that journals every Mutation can rebuild this cache after a crash.
// The hook is called synchronously under whatever serialization the caller
// already imposes on the cache (the Cache itself is not goroutine-safe);
// nil (the default) removes the hook and costs the mutation paths nothing.
func (c *Cache) SetHook(fn func(Mutation)) { c.hook = fn }

// notify funnels one mutation to the hook, if any.
func (c *Cache) notify(kind MutationKind, key keyspace.Key, value Value, expires int) {
	if c.hook != nil {
		c.hook(Mutation{Kind: kind, Key: key, Value: value, Expires: expires})
	}
}

// Cache is one peer's local index storage: at most capacity key–value
// pairs, each carrying an expiration round. Expired entries are treated as
// absent and collected lazily. This is the "cache of 100 key-value pairs
// that can be used for indexing" each peer contributes in the paper's
// scenario (stor).
//
// order is a binary min-heap of the entries under slot.before and entries
// maps each key to its slot's position in it; place is the only writer of
// either, so the two cannot disagree.
type Cache struct {
	capacity int
	entries  map[keyspace.Key]int
	order    []slot
	hook     func(Mutation)
}

// NewCache returns an empty cache with the given capacity.
func NewCache(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: cache capacity %d must be positive", capacity)
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[keyspace.Key]int, capacity),
		order:    make([]slot, 0, capacity),
	}, nil
}

// place seats s at heap position i.
func (c *Cache) place(i int, s slot) {
	c.order[i] = s
	c.entries[s.key] = i
}

// up seats s at position i or, while it sorts before its parent, above.
func (c *Cache) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(c.order[parent]) {
			break
		}
		c.place(i, c.order[parent])
		i = parent
	}
	c.place(i, s)
}

// down seats s at position i or, while a child sorts before it, below.
func (c *Cache) down(i int, s slot) {
	for {
		kid := 2*i + 1
		if kid >= len(c.order) {
			break
		}
		if r := kid + 1; r < len(c.order) && c.order[r].before(c.order[kid]) {
			kid = r
		}
		if !c.order[kid].before(s) {
			break
		}
		c.place(i, c.order[kid])
		i = kid
	}
	c.place(i, s)
}

// fix seats s at position i, whose previous occupant it replaces, moving it
// whichever way the order requires.
func (c *Cache) fix(i int, s slot) {
	if i > 0 && s.before(c.order[(i-1)/2]) {
		c.up(i, s)
	} else {
		c.down(i, s)
	}
}

// remove deletes the entry at position i and returns it.
func (c *Cache) remove(i int) slot {
	s := c.order[i]
	last := len(c.order) - 1
	tail := c.order[last]
	c.order = c.order[:last]
	delete(c.entries, s.key)
	if i < last {
		c.fix(i, tail)
	}
	return s
}

// collect deletes every entry expired at round now, soonest first, and
// returns how many there were: O(log n) per expired entry, O(1) when the
// head is still live.
func (c *Cache) collect(now int) int {
	n := 0
	for len(c.order) > 0 && c.order[0].expires <= now {
		s := c.remove(0)
		c.notify(MutExpire, s.key, s.value, s.expires)
		n++
	}
	return n
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.capacity }

// lookup returns key's position and slot if it is stored and has not
// expired by round now. An expired entry is deleted on sight.
func (c *Cache) lookup(key keyspace.Key, now int) (int, slot, bool) {
	i, ok := c.entries[key]
	if !ok {
		return 0, slot{}, false
	}
	s := c.order[i]
	if s.expires <= now {
		c.remove(i)
		c.notify(MutExpire, key, s.value, s.expires)
		return 0, slot{}, false
	}
	return i, s, true
}

// Get returns the value stored under key if it has not expired by round
// now. An expired entry is deleted on sight.
func (c *Cache) Get(key keyspace.Key, now int) (Value, bool) {
	_, s, ok := c.lookup(key, now)
	return s.value, ok
}

// Put stores key→value until the expires round. When the cache is full, the
// entry closest to expiry — the least recently queried under TTL-reset
// semantics — is evicted first; an incoming entry that would expire sooner
// than everything already stored is rejected. Returns whether the entry was
// stored.
//
// An entry stored with NeverExpires is pinned: it is never a victim. When
// only pinned entries remain, a full cache admits a pinned newcomer beyond
// its capacity, and no mutation is emitted for the room it did not make —
// the TTL-free baselines seed such entries with capacity = the model's stor,
// which is a mean over peers, not a per-peer hard limit.
func (c *Cache) Put(key keyspace.Key, value Value, expires, now int) bool {
	if expires <= now {
		return false
	}
	s := slot{expires: expires, key: key, value: value}
	if i, exists := c.entries[key]; exists {
		c.fix(i, s)
	} else {
		if len(c.order) >= c.capacity && !c.evictOne(expires, now) {
			return false
		}
		c.order = append(c.order, s)
		c.up(len(c.order)-1, s)
	}
	c.notify(MutInsert, key, value, expires)
	return true
}

// evictOne makes room in a full cache for an incoming entry: all expired
// entries are collected, and if none were, the head of the expiry order —
// the live entry with the earliest expiry, ties broken by key — is evicted,
// provided it expires no later than the incoming entry. The victim is a
// function of the cache's contents alone, which keeps simulation runs
// bit-for-bit reproducible.
func (c *Cache) evictOne(incomingExpires, now int) bool {
	if c.collect(now) > 0 {
		return true
	}
	head := c.order[0]
	if head.expires > incomingExpires {
		return false
	}
	if head.expires == NeverExpires {
		return true // only pinned entries remain: admit, evict nothing (see Put)
	}
	c.remove(0)
	c.notify(MutEvict, head.key, head.value, head.expires)
	return true
}

// Refresh resets the expiry of an existing, live entry — the TTL reset a
// query triggers at the storing peer (§5.1). Returns false if the key is
// absent or already expired.
func (c *Cache) Refresh(key keyspace.Key, expires, now int) bool {
	i, s, ok := c.lookup(key, now)
	if !ok {
		return false
	}
	if expires > s.expires {
		s.expires = expires
		c.down(i, s) // a later lapse only ever moves away from the head
		// Only an actual extension is worth a journal record: under
		// TTL-reset semantics a hot key is refreshed many times per round
		// and most of those resets change nothing.
		c.notify(MutRefresh, key, s.value, expires)
	}
	return true
}

// Live returns the number of unexpired entries at round now, collecting
// expired ones — which costs only what is collected, so the per-round
// sweeper and Report pay nothing for a cache whose head is still live.
func (c *Cache) Live(now int) int {
	c.collect(now)
	return len(c.order)
}

// Keys returns the keys of all unexpired entries at round now, collecting
// expired ones. Order is unspecified. Live-node measurement plumbing: the
// cluster-wide distinct-key count is the ground truth behind eq. 15.
func (c *Cache) Keys(now int) []keyspace.Key {
	c.collect(now)
	out := make([]keyspace.Key, len(c.order))
	for i, s := range c.order {
		out[i] = s.key
	}
	return out
}

// Entry is one live cache row as Entries snapshots it: the key, its value,
// and the round it lapses.
type Entry struct {
	Key     keyspace.Key
	Value   Value
	Expires int
}

// Entries returns a snapshot of all unexpired entries at round now,
// collecting expired ones. Order is unspecified. This is the handoff and
// reporting surface: a caller that needs keys *with* their remaining
// lifetimes takes one consistent snapshot here instead of interleaving
// Keys with per-key Expires lookups that the expiry sweeper could race.
// Re-inserting a snapshot entry elsewhere with TTL = Expires−now preserves
// the paper's expiry semantics across the transfer.
//
// now must be computed under the same serialization that guards the cache:
// a round value captured before lock acquisition can go stale while the
// lock is contended, and the snapshot would then include entries already
// expired at snapshot time — exactly what the persistence and handoff
// layers must never receive.
func (c *Cache) Entries(now int) []Entry {
	c.collect(now)
	out := make([]Entry, len(c.order))
	for i, s := range c.order {
		out[i] = Entry{Key: s.key, Value: s.value, Expires: s.expires}
	}
	return out
}

// Expires returns the expiry round of a live entry, with ok=false when the
// key is absent or expired.
func (c *Cache) Expires(key keyspace.Key, now int) (int, bool) {
	i, ok := c.entries[key]
	if !ok || c.order[i].expires <= now {
		return 0, false
	}
	return c.order[i].expires, true
}
