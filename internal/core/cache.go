// Package core is the paper's index storage, one peer's worth: Cache, a
// capacity-bounded key→value map in which every entry carries an expiration
// round. Keys enter when a broadcast search resolves them, live for keyTtl
// rounds, have that lease reset whenever the storing peer is queried for
// them, and silently fall out when they stop being queried (Section 5) — so
// exactly the keys worth indexing, those queried at least about once per
// keyTtl, stay, with no global coordination.
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

// cacheEntry is one stored key with its lapse round.
type cacheEntry struct {
	value   Value
	expires int
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
type Cache struct {
	capacity int
	entries  map[keyspace.Key]cacheEntry
	hook     func(Mutation)
}

// NewCache returns an empty cache with the given capacity.
func NewCache(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: cache capacity %d must be positive", capacity)
	}
	return &Cache{capacity: capacity, entries: make(map[keyspace.Key]cacheEntry, capacity)}, nil
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.capacity }

// Get returns the value stored under key if it has not expired by round
// now. An expired entry is deleted on sight.
func (c *Cache) Get(key keyspace.Key, now int) (Value, bool) {
	e, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	if e.expires <= now {
		delete(c.entries, key)
		c.notify(MutExpire, key, e.value, e.expires)
		return 0, false
	}
	return e.value, true
}

// Put stores key→value until the expires round. When the cache is full, the
// entry closest to expiry — the least recently queried under TTL-reset
// semantics — is evicted first; an incoming entry that would expire sooner
// than everything already stored is rejected. Returns whether the entry was
// stored.
func (c *Cache) Put(key keyspace.Key, value Value, expires, now int) bool {
	if expires <= now {
		return false
	}
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.capacity {
		if !c.evictOne(expires, now) {
			return false
		}
	}
	c.entries[key] = cacheEntry{value: value, expires: expires}
	c.notify(MutInsert, key, value, expires)
	return true
}

// evictOne makes room for an incoming entry: all expired entries are
// collected, and if none were, the live entry with the earliest expiry
// (ties broken by key) is evicted — provided it expires no later than the
// incoming entry. The full sweep and total tie-break keep simulation runs
// bit-for-bit reproducible despite Go's randomized map iteration.
func (c *Cache) evictOne(incomingExpires, now int) bool {
	var victim keyspace.Key
	best := math.MaxInt
	collected := false
	for k, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, k)
			c.notify(MutExpire, k, e.value, e.expires)
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
	v := c.entries[victim]
	delete(c.entries, victim)
	c.notify(MutEvict, victim, v.value, v.expires)
	return true
}

// Refresh resets the expiry of an existing, live entry — the TTL reset a
// query triggers at the storing peer (§5.1). Returns false if the key is
// absent or already expired.
func (c *Cache) Refresh(key keyspace.Key, expires, now int) bool {
	e, ok := c.entries[key]
	if !ok || e.expires <= now {
		if ok {
			delete(c.entries, key)
			c.notify(MutExpire, key, e.value, e.expires)
		}
		return false
	}
	if expires > e.expires {
		e.expires = expires
		c.entries[key] = e
		// Only an actual extension is worth a journal record: under
		// TTL-reset semantics a hot key is refreshed many times per round
		// and most of those resets change nothing.
		c.notify(MutRefresh, key, e.value, expires)
	}
	return true
}

// Live returns the number of unexpired entries at round now, collecting
// expired ones.
func (c *Cache) Live(now int) int {
	for k, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, k)
			c.notify(MutExpire, k, e.value, e.expires)
		}
	}
	return len(c.entries)
}

// Keys returns the keys of all unexpired entries at round now, collecting
// expired ones. Order is unspecified. Live-node measurement plumbing: the
// cluster-wide distinct-key count is the ground truth behind eq. 15.
func (c *Cache) Keys(now int) []keyspace.Key {
	out := make([]keyspace.Key, 0, len(c.entries))
	for k, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, k)
			c.notify(MutExpire, k, e.value, e.expires)
			continue
		}
		out = append(out, k)
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
	out := make([]Entry, 0, len(c.entries))
	for k, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, k)
			c.notify(MutExpire, k, e.value, e.expires)
			continue
		}
		out = append(out, Entry{Key: k, Value: e.value, Expires: e.expires})
	}
	return out
}

// EntriesWhere is Entries restricted to keys satisfying keep (nil keeps
// everything). Expired entries are collected exactly as Entries does. The
// handoff path uses it to snapshot only the keys inside the arcs a
// membership change can actually move (keyspace.ArcSet.Contains) instead
// of copying the whole index per view transition.
func (c *Cache) EntriesWhere(now int, keep func(keyspace.Key) bool) []Entry {
	if keep == nil {
		return c.Entries(now)
	}
	var out []Entry
	for k, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, k)
			c.notify(MutExpire, k, e.value, e.expires)
			continue
		}
		if keep(k) {
			out = append(out, Entry{Key: k, Value: e.value, Expires: e.expires})
		}
	}
	return out
}

// Expires returns the expiry round of a live entry, with ok=false when the
// key is absent or expired.
func (c *Cache) Expires(key keyspace.Key, now int) (int, bool) {
	e, ok := c.entries[key]
	if !ok || e.expires <= now {
		return 0, false
	}
	return e.expires, true
}
