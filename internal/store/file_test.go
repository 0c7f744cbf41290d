package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdht/internal/obs"
)

// openT opens a FileStore under dir with a long snapshot period (tests
// compact explicitly) and no background fsync surprises.
func openT(t *testing.T, dir string, opts ...func(*FileOptions)) *FileStore {
	t.Helper()
	o := FileOptions{Dir: dir, Fsync: SyncNever, SnapshotEvery: time.Hour}
	for _, f := range opts {
		f(&o)
	}
	s, err := OpenFile(o)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", dir, err)
	}
	return s
}

// recoveredMap indexes a recovered set by key.
func recoveredMap(s *FileStore) map[uint64]Entry {
	out := make(map[uint64]Entry)
	for _, e := range s.Recovered() {
		out[e.Key] = e
	}
	return out
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	d1 := time.Now().Add(time.Hour).Truncate(0)
	d2 := time.Now().Add(2 * time.Hour).Truncate(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Append(Record{Op: OpInsert, Key: 1, Value: 11, Deadline: d1}))
	must(s.Append(Record{Op: OpInsert, Key: 2, Value: 22, Deadline: d1}))
	must(s.Append(Record{Op: OpRefresh, Key: 2, Deadline: d2}))
	must(s.Append(Record{Op: OpInsert, Key: 3, Value: 33, Deadline: d1}))
	must(s.Append(Record{Op: OpExpire, Key: 3}))
	must(s.Append(Record{Op: OpPublish, Key: 7, Value: 77}))
	must(s.Append(Record{Op: OpHandoff, Key: 1, Value: 11}))
	must(s.Close())

	r := openT(t, dir)
	defer r.Close()
	got := recoveredMap(r)
	if len(got) != 3 {
		t.Fatalf("recovered %d entries, want 3: %+v", len(got), got)
	}
	if e := got[1]; e.Value != 11 || !e.Deadline.Equal(d1) {
		t.Errorf("key 1: got value %d deadline %v, want 11 at %v", e.Value, e.Deadline, d1)
	}
	if e := got[2]; e.Value != 22 || !e.Deadline.Equal(d2) {
		t.Errorf("key 2: refresh not applied, got deadline %v want %v", e.Deadline, d2)
	}
	if _, ok := got[3]; ok {
		t.Error("key 3 was expired before the crash but replay resurrected it")
	}
	if e := got[7]; e.Value != 77 || !e.Deadline.IsZero() {
		t.Errorf("content key 7: got %+v, want value 77 with zero deadline", e)
	}
	st := r.Stats()
	if st.Recovered != 2 || st.Content != 1 || st.Expired != 0 || st.DroppedRecords != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestFileStoreExpiredAtReplayAreDroppedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Append(Record{Op: OpInsert, Key: 1, Value: 1, Deadline: time.Now().Add(30 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpInsert, Key: 2, Value: 2, Deadline: time.Now().Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	time.Sleep(50 * time.Millisecond) // key 1's remaining TTL runs out while "down"

	r := openT(t, dir)
	defer r.Close()
	got := recoveredMap(r)
	if _, ok := got[1]; ok {
		t.Error("key 1 lapsed while the process was down but was resurrected")
	}
	if _, ok := got[2]; !ok {
		t.Error("key 2 still had remaining TTL but was dropped")
	}
	if st := r.Stats(); st.Expired != 1 || st.Recovered != 1 {
		t.Errorf("stats: %+v, want Expired=1 Recovered=1", st)
	}
}

func TestFileStoreCompactionTruncatesWALAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	d := time.Now().Add(time.Hour).Truncate(0)
	for k := uint64(0); k < 50; k++ {
		if err := s.Append(Record{Op: OpInsert, Key: k, Value: k * 10, Deadline: d}); err != nil {
			t.Fatal(err)
		}
	}
	if s.WALSize() == 0 {
		t.Fatal("WAL empty before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size %d after compaction, want 0", got)
	}
	// Post-compaction appends land in the fresh WAL.
	if err := s.Append(Record{Op: OpInsert, Key: 99, Value: 990, Deadline: d}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openT(t, dir)
	defer r.Close()
	got := recoveredMap(r)
	if len(got) != 51 {
		t.Fatalf("recovered %d entries after compaction+reopen, want 51", len(got))
	}
	if e := got[42]; e.Value != 420 || !e.Deadline.Equal(d) {
		t.Errorf("key 42 deadline drifted through snapshot: %+v want value 420 at %v", e, d)
	}
}

func TestFileStoreSnapshotBytesTriggersCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *FileOptions) { o.SnapshotBytes = 5 * (frameHeaderLen + payloadLen) })
	d := time.Now().Add(time.Hour)
	for k := uint64(0); k < 20; k++ {
		if err := s.Append(Record{Op: OpInsert, Key: k, Value: k, Deadline: d}); err != nil {
			t.Fatal(err)
		}
	}
	if s.snapCount.Load() == 0 {
		t.Fatal("WAL grew past SnapshotBytes but no compaction ran")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot file after size-triggered compaction: %v", err)
	}
	s.Close()
	r := openT(t, dir)
	defer r.Close()
	if got := len(recoveredMap(r)); got != 20 {
		t.Fatalf("recovered %d entries, want 20", got)
	}
}

func TestFileStoreAppendAfterCloseFailsCleanly(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if err := s.Append(Record{Op: OpInsert, Key: 1, Value: 1, Deadline: time.Now().Add(time.Hour)}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenFileRejectsBadOptions: a negative period or size is refused at
// open, not left for the background loop's ticker to panic on.
func TestOpenFileRejectsBadOptions(t *testing.T) {
	dir := t.TempDir()
	for name, o := range map[string]FileOptions{
		"no dir":                 {},
		"negative SnapshotEvery": {Dir: dir, SnapshotEvery: -time.Second},
		"negative SnapshotBytes": {Dir: dir, SnapshotBytes: -1},
	} {
		if s, err := OpenFile(o); err == nil {
			s.Close()
			t.Errorf("%s: OpenFile accepted %+v", name, o)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("SyncPolicy(%v).String() = %q, want %q", got, got.String(), in)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFileStoreMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	d := time.Now().Add(time.Hour)
	s.Append(Record{Op: OpInsert, Key: 1, Value: 1, Deadline: d})
	s.Append(Record{Op: OpPublish, Key: 2, Value: 2})
	s.Close()

	r := openT(t, dir)
	defer r.Close()
	r.Append(Record{Op: OpInsert, Key: 3, Value: 3, Deadline: d})
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	r.RegisterMetrics(reg) // idempotent
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pdht_store_wal_appends_total 1",
		"pdht_store_recovered_entries 2",
		"pdht_store_replay_expired_entries 0",
		"# TYPE pdht_store_wal_appends_total counter",
		"# TYPE pdht_store_snapshot_seconds histogram",
		"pdht_store_mirror_entries 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
