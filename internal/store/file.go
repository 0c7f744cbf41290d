package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pdht/internal/obs"
)

// FileStore is the file-backed Store: an append-only WAL of length-prefixed,
// CRC32-framed records plus a periodically compacted snapshot, both under
// one directory. The files are the only copy of the durable state: after
// open the store holds nothing per key but the recovered set, and
// compaction folds the snapshot and the WAL it has written — the same fold
// recovery runs — into the next snapshot, then truncates the WAL.
//
// Crash safety:
//
//   - WAL appends are single write(2) calls, so a crash tears at most the
//     last frame. Recovery scans the WAL front to back and truncates at
//     the first bad frame (short read, impossible length, CRC mismatch) —
//     everything before it is kept, everything after is counted dropped.
//   - Snapshots are written to a temp file, fsynced, and renamed into
//     place, so a crash mid-snapshot leaves the previous snapshot intact.
//     The WAL is truncated only after the rename; a crash in between
//     leaves snapshot + pre-snapshot WAL, whose replay is idempotent (the
//     WAL holds exactly the history the snapshot absorbed).
//   - fsync policy is configurable (SyncAlways / SyncInterval / SyncNever).
//     A kill -9 loses nothing under any policy — the data is in the page
//     cache; only power loss can eat the unsynced window.
type FileStore struct {
	opts FileOptions

	mu        sync.Mutex
	wal       *os.File
	walSize   int64
	dirty     bool // unsynced appends
	closed    bool
	recovered []Entry
	stats     RecoveryStats

	walAppends atomic.Uint64
	walBytes   atomic.Uint64
	fsyncCount atomic.Uint64
	snapCount  atomic.Uint64
	appendErrs atomic.Uint64
	snapHist   atomic.Pointer[obs.Histogram]
	regOnce    sync.Once

	stop chan struct{}
	done sync.WaitGroup
}

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncInterval (the default): a background flusher fsyncs every
	// syncEvery while appends are outstanding. Bounded loss on power
	// failure, negligible append cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways: fsync after every append. No loss window, every append
	// pays a disk flush.
	SyncAlways
	// SyncNever: fsync only at snapshots and on Close. For tests,
	// benchmarks and deployments that trust the page cache.
	SyncNever
)

// ParseSyncPolicy maps the CLI spellings onto the policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "none"
	default:
		return "interval"
	}
}

// FileOptions parameterizes OpenFile; zero fields take the documented
// defaults.
type FileOptions struct {
	// Dir is the data directory, created if missing. Required.
	Dir string
	// Fsync is the WAL durability policy (default SyncInterval).
	Fsync SyncPolicy
	// SnapshotEvery is the compaction period: how often outstanding WAL
	// records are absorbed into a fresh snapshot and the WAL truncated
	// (default 1m). Compaction also triggers whenever the WAL exceeds
	// SnapshotBytes (default 4MiB), whichever comes first.
	SnapshotEvery time.Duration
	SnapshotBytes int64

	// now is the test seam for the replay clock.
	now func() time.Time
}

// syncEvery is the SyncInterval flush period.
const syncEvery = 100 * time.Millisecond

func (o *FileOptions) setDefaults() {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = time.Minute
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 4 << 20
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// The on-disk names under Dir.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"
	snapshotTmp  = "snapshot.tmp"
)

// snapshotMagic heads a snapshot file; the trailing byte is the format
// version.
var snapshotMagic = []byte("PDHTSNP1")

// Frame layout: u32 payload length, u32 CRC32 (IEEE) of the payload, then
// the payload — op(1) | key(8) | value(8) | deadline unix-nanos(8), all
// little-endian, zero deadline for records without one.
const (
	frameHeaderLen = 8
	payloadLen     = 1 + 8 + 8 + 8
	// maxPayload bounds the length field during recovery: anything larger
	// is corruption, not a record a future version could have written.
	maxPayload = 1 << 12
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// OpenFile opens (or creates) the file-backed store under opts.Dir and
// runs crash recovery: the snapshot is loaded, the WAL replayed on top
// with the tail truncated at the first corrupt frame, and index entries
// whose deadline already passed are dropped and counted. The surviving
// state is available through Recovered and Stats.
func OpenFile(opts FileOptions) (*FileStore, error) {
	switch {
	case opts.Dir == "":
		return nil, fmt.Errorf("store: FileOptions.Dir is required")
	case opts.SnapshotEvery < 0:
		return nil, fmt.Errorf("store: negative SnapshotEvery %v", opts.SnapshotEvery)
	case opts.SnapshotBytes < 0:
		return nil, fmt.Errorf("store: negative SnapshotBytes %d", opts.SnapshotBytes)
	}
	opts.setDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &FileStore{opts: opts, stop: make(chan struct{})}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.done.Add(1)
	go s.background()
	return s, nil
}

// recover folds the snapshot and the WAL, cuts the WAL's torn tail so
// appends resume on a frame boundary, and freezes the recovered set and
// stats.
func (s *FileStore) recover() error {
	start := time.Now()
	snap, _ := os.ReadFile(filepath.Join(s.opts.Dir, snapshotName)) // unreadable: no snapshot
	wal, err := os.OpenFile(filepath.Join(s.opts.Dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	body, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	st := fold(snap, body, s.opts.now().UnixNano())
	if st.stats.TruncatedBytes > 0 {
		if err := wal.Truncate(st.walGood); err != nil {
			wal.Close()
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := wal.Seek(st.walGood, io.SeekStart); err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.wal, s.walSize = wal, st.walGood
	s.recovered, s.stats = st.entries, st.stats
	s.stats.Replay = time.Since(start)
	return nil
}

// folded is what one fold of snapshot and WAL bytes arrives at.
type folded struct {
	// entries is the durable state in Recovered's form: index entries
	// with their deadlines, then content entries with a zero one.
	entries []Entry
	stats   RecoveryStats // all but Replay
	walGood int64         // length of the WAL's intact frame prefix
}

// fold replays the snapshot's intact prefix, if it carries the magic, then
// the WAL's, stopping at the WAL's first bad frame (the torn tail a crash
// mid-append leaves behind), and drops index entries whose deadline is at
// or before now. It has no side effects: recovery freezes its result as
// the recovered set and stats, compaction writes it out as the next
// snapshot. WAL order is chronological, so plain replay converges; the one
// duplicate window (snapshot renamed, WAL not yet truncated) replays
// exactly the history the snapshot absorbed and lands on the same state.
func fold(snap, wal []byte, now int64) folded {
	var st folded
	index, content := make(map[uint64]Entry), make(map[uint64]uint64)
	// apply applies every intact frame off the front of b and returns the
	// rest, from the first bad frame on, and the number of frames skipped
	// for an unknown op.
	apply := func(b []byte) (rest []byte, unknown int) {
		for len(b) > 0 {
			rec, n, ok := decodeFrame(b)
			if !ok {
				break
			}
			b = b[n:]
			switch rec.Op {
			case OpInsert:
				index[rec.Key] = Entry{Key: rec.Key, Value: rec.Value, Deadline: rec.Deadline}
			case OpRefresh:
				if e, ok := index[rec.Key]; ok {
					e.Deadline = rec.Deadline
					index[rec.Key] = e
				}
			case OpExpire:
				delete(index, rec.Key)
			case OpPublish:
				content[rec.Key] = rec.Value
			case OpHandoff:
				// Audit only: the holder keeps its copy.
			default:
				unknown++
			}
		}
		return b, unknown
	}
	if len(snap) > 0 {
		if len(snap) < len(snapshotMagic) || string(snap[:len(snapshotMagic)]) != string(snapshotMagic) {
			st.stats.SnapshotDropped = true
		} else {
			// A torn snapshot should be impossible (temp + rename); keep
			// what decoded and report the anomaly.
			rest, _ := apply(snap[len(snapshotMagic):])
			st.stats.SnapshotDropped = len(rest) > 0
		}
	}
	rest, unknown := apply(wal)
	st.walGood = int64(len(wal) - len(rest))
	// A CRC-valid frame of an unknown op is a future format: skipped, and
	// in the WAL counted dropped.
	st.stats.DroppedRecords += unknown
	if len(rest) > 0 {
		// At least one record died in the torn tail; the garbage may hide
		// more, but their count is unknowable.
		st.stats.DroppedRecords++
		st.stats.TruncatedBytes = int64(len(rest))
	}
	st.entries = make([]Entry, 0, len(index)+len(content))
	for _, e := range index {
		if deadlineNanos(e.Deadline) <= now {
			st.stats.Expired++
			continue
		}
		st.entries = append(st.entries, e)
	}
	st.stats.Recovered, st.stats.Content = len(st.entries), len(content)
	for k, v := range content {
		st.entries = append(st.entries, Entry{Key: k, Value: v})
	}
	return st
}

func deadlineNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// encodeFrame appends rec's frame to buf and returns the extended slice.
func encodeFrame(buf []byte, rec Record) []byte {
	var payload [payloadLen]byte
	payload[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(payload[1:], rec.Key)
	binary.LittleEndian.PutUint64(payload[9:], rec.Value)
	binary.LittleEndian.PutUint64(payload[17:], uint64(deadlineNanos(rec.Deadline)))
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], payloadLen)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:]))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:]...)
}

// decodeFrame reads one frame off the front of b, returning the record,
// the bytes consumed, and whether the frame was intact.
func decodeFrame(b []byte) (Record, int, bool) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, false
	}
	n := binary.LittleEndian.Uint32(b[0:])
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < payloadLen || n > maxPayload || len(b) < frameHeaderLen+int(n) {
		return Record{}, 0, false
	}
	payload := b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, false
	}
	rec := Record{
		Op:    Op(payload[0]),
		Key:   binary.LittleEndian.Uint64(payload[1:]),
		Value: binary.LittleEndian.Uint64(payload[9:]),
	}
	if d := int64(binary.LittleEndian.Uint64(payload[17:])); d != 0 {
		rec.Deadline = time.Unix(0, d)
	}
	return rec, frameHeaderLen + int(n), true
}

// Recovered returns the entries replayed at open.
func (s *FileStore) Recovered() []Entry { return s.recovered }

// Stats reports what the opening replay kept and dropped.
func (s *FileStore) Stats() RecoveryStats { return s.stats }

// Append journals one mutation: encode, single write(2) into the WAL,
// fsync per policy. Safe for concurrent use.
func (s *FileStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.appendErrs.Add(1)
		return ErrClosed
	}
	var buf [frameHeaderLen + payloadLen]byte
	frame := encodeFrame(buf[:0], rec)
	if _, err := s.wal.Write(frame); err != nil {
		s.appendErrs.Add(1)
		return fmt.Errorf("store: wal append: %w", errors.Join(err, s.rewindLocked()))
	}
	s.walSize += int64(len(frame))
	s.dirty = true
	s.walAppends.Add(1)
	s.walBytes.Add(uint64(len(frame)))
	if s.opts.Fsync == SyncAlways {
		if err := s.syncLocked(); err != nil {
			s.appendErrs.Add(1)
			return err
		}
	}
	if s.walSize > s.opts.SnapshotBytes {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rewindLocked cuts the WAL back to its last whole frame after a failed
// write. A short write leaves part of a frame behind and moves the file
// offset past it; every later frame would land after the torn bytes, where
// recovery and the compaction fold stop reading.
func (s *FileStore) rewindLocked() error {
	if err := s.wal.Truncate(s.walSize); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	if _, err := s.wal.Seek(s.walSize, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	return nil
}

// Sync forces buffered WAL records to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

func (s *FileStore) syncLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	s.dirty = false
	s.fsyncCount.Add(1)
	return nil
}

// Compact absorbs the outstanding WAL into a fresh snapshot and truncates
// the WAL. Runs automatically every SnapshotEvery and whenever the WAL
// crosses SnapshotBytes; exported for operational use.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *FileStore) compactLocked() error {
	start := time.Now()
	snap, err := os.ReadFile(filepath.Join(s.opts.Dir, snapshotName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		// Folding without a snapshot that is there would lose its rows.
		return fmt.Errorf("store: snapshot: %w", err)
	}
	wal := make([]byte, s.walSize)
	if _, err := s.wal.ReadAt(wal, 0); err != nil {
		return fmt.Errorf("store: compaction: %w", err)
	}
	// Lapsed index entries need no snapshot row; the owning cache journals
	// its own expirations, this drops them a beat earlier.
	entries := fold(snap, wal, s.opts.now().UnixNano()).entries
	buf := make([]byte, 0, len(snapshotMagic)+len(entries)*(frameHeaderLen+payloadLen))
	buf = append(buf, snapshotMagic...)
	for _, e := range entries {
		op := OpInsert
		if e.Deadline.IsZero() {
			op = OpPublish
		}
		buf = encodeFrame(buf, Record{Op: op, Key: e.Key, Value: e.Value, Deadline: e.Deadline})
	}
	tmpPath := filepath.Join(s.opts.Dir, snapshotTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.opts.Dir, snapshotName)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.fsyncCount.Add(1)
	syncDir(s.opts.Dir)
	// The snapshot now owns all journaled history; a crash before this
	// truncate replays snapshot + absorbed WAL, which is idempotent.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: wal truncate: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walSize = 0
	s.dirty = false
	s.snapCount.Add(1)
	if h := s.snapHist.Load(); h != nil {
		h.Observe(time.Since(start))
	}
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss; best effort
// (not all filesystems support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WALSize returns the current WAL length in bytes.
func (s *FileStore) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// background is the maintenance loop: interval fsync and periodic
// compaction.
func (s *FileStore) background() {
	defer s.done.Done()
	flush := time.NewTicker(syncEvery)
	defer flush.Stop()
	snap := time.NewTicker(s.opts.SnapshotEvery)
	defer snap.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-flush.C:
			if s.opts.Fsync == SyncInterval {
				s.mu.Lock()
				if !s.closed {
					s.syncLocked()
				}
				s.mu.Unlock()
			}
		case <-snap.C:
			s.mu.Lock()
			if !s.closed && s.walSize > 0 {
				s.compactLocked()
			}
			s.mu.Unlock()
		}
	}
}

// RegisterMetrics installs the pdht_store_* instruments on reg. The
// monotone counts are exposed through CounterFunc so appends journaled
// before registration (recovery happens at open, the registry exists only
// once the owning node is built) are not lost.
func (s *FileStore) RegisterMetrics(reg *obs.Registry) {
	s.regOnce.Do(func() {
		reg.CounterFunc("pdht_store_wal_appends_total",
			"Mutation records appended to the WAL.",
			func() float64 { return float64(s.walAppends.Load()) })
		reg.CounterFunc("pdht_store_wal_bytes_total",
			"Bytes appended to the WAL (frames, including headers).",
			func() float64 { return float64(s.walBytes.Load()) })
		reg.CounterFunc("pdht_store_fsyncs_total",
			"fsync calls issued (per-append, interval flushes and snapshots).",
			func() float64 { return float64(s.fsyncCount.Load()) })
		reg.CounterFunc("pdht_store_snapshots_total",
			"Compactions completed: snapshot written, WAL truncated.",
			func() float64 { return float64(s.snapCount.Load()) })
		reg.CounterFunc("pdht_store_append_errors_total",
			"WAL appends that failed; durability degraded, serving unaffected.",
			func() float64 { return float64(s.appendErrs.Load()) })
		reg.GaugeFunc("pdht_store_wal_size_bytes",
			"Current WAL length; drops to zero at each compaction.",
			func() float64 { return float64(s.WALSize()) })
		reg.Gauge("pdht_store_recovered_entries",
			"Entries re-admitted by the opening replay (index at remaining TTL, plus content).").
			Set(int64(s.stats.Recovered + s.stats.Content))
		reg.Gauge("pdht_store_replay_expired_entries",
			"Index entries whose TTL lapsed while the process was down, dropped at replay.").
			Set(int64(s.stats.Expired))
		reg.Gauge("pdht_store_replay_dropped_records",
			"WAL records discarded at the torn tail (plus unknown-op skips).").
			Set(int64(s.stats.DroppedRecords))
		reg.GaugeFunc("pdht_store_replay_seconds",
			"Wall-clock cost of the opening recovery replay.",
			func() float64 { return s.stats.Replay.Seconds() })
		s.snapHist.Store(reg.Histogram("pdht_store_snapshot_seconds",
			"Compaction duration: snapshot serialization, fsync, rename, WAL truncation.", nil))
	})
}

// Close stops the maintenance loop, takes a final snapshot (so the next
// open replays a compact file instead of the whole WAL), and releases the
// files. Idempotent.
func (s *FileStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.done.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if s.walSize > 0 {
		if err := s.compactLocked(); err != nil {
			firstErr = err
			// Compaction failed; at least push the raw WAL to disk.
			if err := s.wal.Sync(); err == nil {
				s.fsyncCount.Add(1)
			}
		}
	} else if err := s.syncLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
