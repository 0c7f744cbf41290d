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
// one directory. It keeps an in-memory mirror of the durable state (the
// same bounded universe as the index cache plus the content store), so
// compaction never has to consult the owning node: a snapshot is the mirror
// serialized, and WAL truncation follows the snapshot rename.
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
	index     map[uint64]mirrorEntry
	content   map[uint64]uint64
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

// mirrorEntry is one row of the durable-state mirror; deadline is the
// absolute expiry in Unix nanoseconds, carried exactly as journaled.
type mirrorEntry struct {
	value    uint64
	deadline int64
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
	s := &FileStore{
		opts:    opts,
		index:   make(map[uint64]mirrorEntry),
		content: make(map[uint64]uint64),
		stop:    make(chan struct{}),
	}
	start := time.Now()
	s.loadSnapshot()
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	s.finishRecovery(start)
	s.done.Add(1)
	go s.background()
	return s, nil
}

// loadSnapshot applies the snapshot file, if one exists, to the mirror. A
// missing or empty file means "no snapshot yet"; a present-but-unreadable
// one is ignored and reported (the WAL may still carry the state).
func (s *FileStore) loadSnapshot() {
	body, err := os.ReadFile(filepath.Join(s.opts.Dir, snapshotName))
	if err != nil || len(body) == 0 {
		return
	}
	if len(body) < len(snapshotMagic) || string(body[:len(snapshotMagic)]) != string(snapshotMagic) {
		s.stats.SnapshotDropped = true
		return
	}
	rest := body[len(snapshotMagic):]
	for len(rest) > 0 {
		rec, n, ok := decodeFrame(rest)
		if !ok {
			// A torn snapshot should be impossible (temp + rename); keep
			// what decoded and report the anomaly.
			s.stats.SnapshotDropped = true
			return
		}
		s.apply(rec)
		rest = rest[n:]
	}
}

// replayWAL opens the WAL, applies every intact frame to the mirror, and
// truncates the file at the first bad one — the torn tail a crash
// mid-append leaves behind.
func (s *FileStore) replayWAL() error {
	wal, err := os.OpenFile(filepath.Join(s.opts.Dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	body, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	good := int64(0)
	rest := body
	for len(rest) > 0 {
		rec, n, ok := decodeFrame(rest)
		if !ok {
			break
		}
		if rec.Op >= OpInsert && rec.Op <= OpHandoff {
			s.apply(rec)
		} else {
			// CRC-valid but unknown op: a future format. Skip it but say so.
			s.stats.DroppedRecords++
		}
		good += int64(n)
		rest = rest[n:]
	}
	if tail := int64(len(body)) - good; tail > 0 {
		// Torn or corrupt tail: cut it off so appends resume on a clean
		// frame boundary. At least one record died here; the garbage may
		// hide more, but their count is unknowable.
		s.stats.DroppedRecords++
		s.stats.TruncatedBytes = tail
		if err := wal.Truncate(good); err != nil {
			wal.Close()
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := wal.Seek(good, io.SeekStart); err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	s.walSize = good
	return nil
}

// finishRecovery drops index entries already expired at replay time and
// freezes the recovered set and stats.
func (s *FileStore) finishRecovery(start time.Time) {
	now := s.opts.now().UnixNano()
	for k, e := range s.index {
		if e.deadline <= now {
			delete(s.index, k)
			s.stats.Expired++
			continue
		}
		s.recovered = append(s.recovered, Entry{Key: k, Value: e.value, Deadline: time.Unix(0, e.deadline)})
	}
	s.stats.Recovered = len(s.recovered)
	for k, v := range s.content {
		s.recovered = append(s.recovered, Entry{Key: k, Value: v})
	}
	s.stats.Content = len(s.content)
	s.stats.Replay = time.Since(start)
}

// apply folds one record into the mirror. WAL order is chronological, so
// plain replay converges; the one duplicate window (snapshot renamed, WAL
// not yet truncated) replays exactly the history the snapshot absorbed and
// lands on the same state.
func (s *FileStore) apply(rec Record) {
	switch rec.Op {
	case OpInsert:
		s.index[rec.Key] = mirrorEntry{value: rec.Value, deadline: deadlineNanos(rec.Deadline)}
	case OpRefresh:
		if e, ok := s.index[rec.Key]; ok {
			e.deadline = deadlineNanos(rec.Deadline)
			s.index[rec.Key] = e
		}
	case OpExpire:
		delete(s.index, rec.Key)
	case OpPublish:
		s.content[rec.Key] = rec.Value
	case OpHandoff:
		// Audit only: the holder keeps its copy.
	}
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
// mirror update, fsync per policy. Safe for concurrent use.
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
		return fmt.Errorf("store: wal append: %w", err)
	}
	s.walSize += int64(len(frame))
	s.dirty = true
	s.apply(rec)
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
	now := s.opts.now().UnixNano()
	buf := make([]byte, 0, len(snapshotMagic)+(len(s.index)+len(s.content))*(frameHeaderLen+payloadLen))
	buf = append(buf, snapshotMagic...)
	for k, e := range s.index {
		if e.deadline <= now {
			// Expired entries need no snapshot row; the owning cache
			// journals its own expirations, this is just the mirror
			// dropping lapsed state a beat earlier.
			delete(s.index, k)
			continue
		}
		buf = encodeFrame(buf, Record{Op: OpInsert, Key: k, Value: e.value, Deadline: time.Unix(0, e.deadline)})
	}
	for k, v := range s.content {
		buf = encodeFrame(buf, Record{Op: OpPublish, Key: k, Value: v})
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

// Entries returns the number of rows in the durable-state mirror (index
// plus content).
func (s *FileStore) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index) + len(s.content)
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
		reg.GaugeFunc("pdht_store_mirror_entries",
			"Rows in the durable-state mirror (index plus content).",
			func() float64 { return float64(s.Entries()) })
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
