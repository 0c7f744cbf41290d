// Package store is the durability plane of the live node subsystem: a
// pluggable persistence layer for one peer's index cache and content store,
// so a restarted peer rejoins warm instead of paying the worst-case
// cold-cache cost the churn experiments measure.
//
// The paper's whole economy is amortizing a key's indexing cost over its
// TTL lifetime; throwing the index away on every restart forfeits that
// investment at exactly the moment (a rolling upgrade, a crash-loop) when
// a fleet restarts most. The contract that preserves the economy across a
// reboot is the REMAINING-TTL invariant: entries are journaled with their
// absolute wall-clock expiry deadline, not a duration, and recovery
// re-admits each one at whatever lifetime it has left — an entry granted
// 120 rounds that crashed at round 70 comes back with 50, and one that
// lapsed while the process was down is dropped (and counted), never
// resurrected. The tuner's granted-TTL semantics (PR 3) are thereby
// restart-invariant: a retune changes only what future inserts receive,
// on disk exactly as in memory.
//
// One implementation ships: FileStore (file.go — an append-only WAL of
// CRC32-framed records with a configurable fsync policy, periodically
// compacted into a snapshot file, with torn-tail-tolerant crash recovery).
// Its files are the only copy of the durable state: recovery and
// compaction run one fold of snapshot and WAL, recovery to re-admit what
// survived, compaction to write it out as the next snapshot.
// The default is no store at all: a node whose Config.Store is nil installs
// no cache hook, so an in-memory node pays nothing for the seam. A node
// with a store writes through the core.Cache mutation hook; nothing else in
// the system knows durability exists.
package store

import (
	"time"

	"pdht/internal/obs"
)

// Op labels one journaled mutation.
type Op uint8

const (
	// OpInsert: key was indexed with Value until Deadline.
	OpInsert Op = iota + 1
	// OpRefresh: key's expiry was reset to Deadline (TTL reset on a hit).
	OpRefresh
	// OpExpire: key lapsed out of the index (TTL expiry or capacity
	// eviction) and must not be resurrected by replay.
	OpExpire
	// OpPublish: key→Value entered the local content store. Content has
	// no expiry; Deadline is zero.
	OpPublish
	// OpHandoff: key was pushed to a replica set's new member on a view
	// change. Written by earlier builds as an audit trail and ignored on
	// replay (the holder keeps its copy); nothing writes it now, and it
	// stays decodable so their data directories still replay.
	OpHandoff
)

// Record is one journaled mutation: the operation, the key it touched,
// and — where the operation carries them — the stored value and the
// absolute wall-clock expiry deadline. Deadlines are absolute by design:
// a duration would restart the clock on every reboot and break the
// remaining-TTL invariant.
type Record struct {
	Op       Op
	Key      uint64
	Value    uint64
	Deadline time.Time
}

// Entry is one row recovered from durable state: an index entry with its
// absolute expiry deadline, or — when Deadline is zero — a content-store
// entry, which never expires.
type Entry struct {
	Key      uint64
	Value    uint64
	Deadline time.Time
}

// RecoveryStats reports what one recovery replay found, kept and dropped.
type RecoveryStats struct {
	// Recovered is the number of live index entries re-admitted; Content
	// the number of content-store entries.
	Recovered int
	Content   int
	// Expired counts index entries whose deadline had already passed at
	// replay time: the process was down longer than their remaining TTL,
	// so §5.1 expiry semantics demand they stay gone.
	Expired int
	// DroppedRecords counts WAL records discarded at the torn tail (bad
	// CRC, impossible length, short read) and TruncatedBytes the WAL bytes
	// cut off with them. SnapshotDropped reports a snapshot file that was
	// present but unreadable and therefore ignored.
	DroppedRecords  int
	TruncatedBytes  int64
	SnapshotDropped bool
	// Replay is the wall-clock cost of the whole recovery pass.
	Replay time.Duration
}

// Store is the persistence plane one node writes through. Implementations
// must be safe for concurrent use: the node appends under its own lock,
// but background compaction and scrape-time metric reads run concurrently.
type Store interface {
	// Recovered returns the entries replayed from durable state when the
	// store was opened, index entries carrying their absolute deadlines
	// and content entries a zero one. The slice is owned by the store;
	// callers must not modify it.
	Recovered() []Entry
	// Stats reports what the opening replay kept and dropped.
	Stats() RecoveryStats
	// Append journals one mutation. Durability is governed by the
	// implementation's sync policy; an error means the record may not
	// survive a crash, not that the in-memory system is wrong — callers
	// keep serving and watch the store's error counter.
	Append(rec Record) error
	// RegisterMetrics installs the store's instruments (pdht_store_*) on
	// reg. Idempotent; the owning node calls it once at construction.
	RegisterMetrics(reg *obs.Registry)
	// Close flushes, compacts if possible, and releases the store.
	Close() error
}
