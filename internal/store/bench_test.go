package store

import (
	"fmt"
	"testing"
	"time"
)

// closeRaw releases a store without the Close-time compaction, so recovery
// benchmark iterations keep replaying the same WAL instead of a snapshot.
func (s *FileStore) closeRaw() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.done.Wait()
	s.wal.Close()
}

// BenchmarkWALAppend measures the per-record journaling cost under each
// fsync policy — the price one cache mutation pays for durability.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			s, err := OpenFile(FileOptions{
				Dir:           b.TempDir(),
				Fsync:         policy,
				SnapshotEvery: time.Hour,
				SnapshotBytes: 1 << 30, // appends only; no compaction in-loop
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			d := time.Now().Add(time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(Record{Op: OpInsert, Key: uint64(i), Value: uint64(i), Deadline: d}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures OpenFile's replay cost against WAL length —
// the restart latency a peer pays before it can rejoin warm.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, err := OpenFile(FileOptions{Dir: dir, Fsync: SyncNever, SnapshotEvery: time.Hour, SnapshotBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			d := time.Now().Add(24 * time.Hour)
			for i := 0; i < n; i++ {
				if err := s.Append(Record{Op: OpInsert, Key: uint64(i), Value: uint64(i), Deadline: d}); err != nil {
					b.Fatal(err)
				}
			}
			// Leave the records in the WAL (no Close-time compaction) so the
			// benchmark replays frames, not a snapshot.
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := OpenFile(FileOptions{Dir: dir, Fsync: SyncNever, SnapshotEvery: time.Hour, SnapshotBytes: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				if got := len(r.Recovered()); got != n {
					b.Fatalf("recovered %d, want %d", got, n)
				}
				b.StopTimer()
				// Close would compact and change what the next iteration
				// replays; close the fd without absorbing the WAL.
				r.closeRaw()
				b.StartTimer()
			}
			b.StopTimer()
			s.Close()
		})
	}
}

// BenchmarkCompaction measures one Compact of a full WAL (SnapshotBytes'
// default, 4 MiB) on top of a snapshot the size of one miss-durable
// member's durable state: 37,000 published keys and a 4,096-entry index
// cache. The WAL is that cache churning through fresh keys, each insert
// evicting the oldest.
func BenchmarkCompaction(b *testing.B) {
	const published, cache, walBytes = 37_000, 4096, 4 << 20
	s, err := OpenFile(FileOptions{Dir: b.TempDir(), Fsync: SyncNever, SnapshotEvery: time.Hour, SnapshotBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	d := time.Now().Add(24 * time.Hour)
	appendOrFail := func(rec Record) {
		if err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	for k := uint64(0); k < published; k++ {
		appendOrFail(Record{Op: OpPublish, Key: k, Value: k})
	}
	const base = 1 << 40
	for k := uint64(base); k < base+cache; k++ {
		appendOrFail(Record{Op: OpInsert, Key: k, Value: k, Deadline: d})
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(walBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := uint64(base + cache); s.WALSize() < walBytes; k++ {
			appendOrFail(Record{Op: OpInsert, Key: k, Value: k, Deadline: d})
			appendOrFail(Record{Op: OpExpire, Key: k - cache})
		}
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
