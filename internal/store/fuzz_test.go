package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fuzzNow is the replay clock FuzzWALReplay pins, in Unix nanoseconds; the
// seed corpus' deadlines sit an hour after it, on it, and just before it.
const fuzzNow = int64(1e18)

// Recovery reads two files a crash, a full disk or another program may have
// left in any state. FuzzWALReplay hands OpenFile arbitrary bytes as the
// WAL and as the snapshot and holds it to the recovery contract: no panic
// and no error; the dropped-record, truncated-byte and expired counts agree
// with refReplay's reading of the same bytes; nothing comes back at or past
// its deadline; the WAL is cut to the last intact frame boundary; and a
// close and reopen recovers the same set. The seed corpus (the PR 7 torture
// cases) is committed under testdata/fuzz; `make fuzz-smoke` runs it for
// 20 s.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, walName)
		if err := os.WriteFile(walPath, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		atFuzzNow := func(o *FileOptions) { o.now = func() time.Time { return time.Unix(0, fuzzNow) } }

		s := openT(t, dir, atFuzzNow)
		defer s.Close()
		want := refReplay(wal, snap)
		got := s.Stats()
		got.Replay = 0
		if got != want.stats {
			t.Fatalf("recovery stats %+v, the bytes say %+v", got, want.stats)
		}
		index, content := splitRecovered(t, s)
		if !reflect.DeepEqual(index, want.index) || !reflect.DeepEqual(content, want.content) {
			t.Fatalf("recovered index %v content %v, the bytes say %v and %v", index, content, want.index, want.content)
		}
		onDisk, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, good := refFrames(onDisk); len(onDisk) != want.walGood || good != len(onDisk) {
			t.Fatalf("WAL left at %d bytes with %d intact, want it cut to the %d-byte frame boundary", len(onDisk), good, want.walGood)
		}

		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		r := openT(t, dir, atFuzzNow)
		defer r.Close()
		if again, againContent := splitRecovered(t, r); !reflect.DeepEqual(again, index) || !reflect.DeepEqual(againContent, content) {
			t.Fatalf("reopen recovered index %v content %v, first open %v and %v", again, againContent, index, content)
		}
	})
}

// splitRecovered indexes a recovered set by key, index entries (deadline in
// Unix nanoseconds) apart from content, and fails on an index entry that is
// back at or past its deadline.
func splitRecovered(t *testing.T, s *FileStore) (index map[uint64]refEntry, content map[uint64]uint64) {
	index, content = map[uint64]refEntry{}, map[uint64]uint64{}
	for _, e := range s.Recovered() {
		if e.Deadline.IsZero() {
			content[e.Key] = e.Value
			continue
		}
		if e.Deadline.UnixNano() <= fuzzNow {
			t.Fatalf("key %d resurrected with deadline %d, now is %d", e.Key, e.Deadline.UnixNano(), fuzzNow)
		}
		index[e.Key] = refEntry{e.Value, e.Deadline.UnixNano()}
	}
	return index, content
}

// refRecord and refEntry are the reference's own record and index row,
// deadlines as journaled (Unix nanoseconds, zero for none).
type refRecord struct {
	op         Op
	key, value uint64
	deadline   int64
}

type refEntry struct {
	value    uint64
	deadline int64
}

// refFrames reads b as the frame format file.go documents — u32 payload
// length (25 to 4096), u32 CRC32 of the payload, payload of op, key, value,
// deadline — and returns the records of the intact prefix and its length.
func refFrames(b []byte) (recs []refRecord, good int) {
	for len(b)-good >= 8 {
		n := int(binary.LittleEndian.Uint32(b[good:]))
		if n < 25 || n > 4096 || len(b)-good-8 < n {
			break
		}
		payload := b[good+8 : good+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[good+4:]) {
			break
		}
		recs = append(recs, refRecord{
			op:       Op(payload[0]),
			key:      binary.LittleEndian.Uint64(payload[1:]),
			value:    binary.LittleEndian.Uint64(payload[9:]),
			deadline: int64(binary.LittleEndian.Uint64(payload[17:])),
		})
		good += 8 + n
	}
	return recs, good
}

// refState is what a recovery of given WAL and snapshot bytes must report.
type refState struct {
	index   map[uint64]refEntry
	content map[uint64]uint64
	stats   RecoveryStats
	walGood int
}

// refReplay is the recovery contract restated: the snapshot's intact prefix
// (if it carries the magic), then the WAL's, an unknown op skipped and
// counted, a bad tail counted once with its bytes, and every index entry at
// or past its deadline at fuzzNow dropped and counted.
func refReplay(wal, snap []byte) refState {
	st := refState{index: map[uint64]refEntry{}, content: map[uint64]uint64{}}
	apply := func(r refRecord) {
		switch r.op {
		case OpInsert:
			st.index[r.key] = refEntry{r.value, r.deadline}
		case OpRefresh:
			if e, ok := st.index[r.key]; ok {
				st.index[r.key] = refEntry{e.value, r.deadline}
			}
		case OpExpire:
			delete(st.index, r.key)
		case OpPublish:
			st.content[r.key] = r.value
		}
	}
	if len(snap) > 0 {
		if len(snap) < len(snapshotMagic) || string(snap[:len(snapshotMagic)]) != string(snapshotMagic) {
			st.stats.SnapshotDropped = true
		} else {
			recs, good := refFrames(snap[len(snapshotMagic):])
			for _, r := range recs {
				apply(r)
			}
			st.stats.SnapshotDropped = good != len(snap)-len(snapshotMagic)
		}
	}
	recs, good := refFrames(wal)
	for _, r := range recs {
		if r.op < OpInsert || r.op > OpHandoff {
			st.stats.DroppedRecords++
			continue
		}
		apply(r)
	}
	st.walGood = good
	if good != len(wal) {
		st.stats.DroppedRecords++
		st.stats.TruncatedBytes = int64(len(wal) - good)
	}
	for k, e := range st.index {
		if e.deadline <= fuzzNow {
			delete(st.index, k)
			st.stats.Expired++
		}
	}
	st.stats.Recovered, st.stats.Content = len(st.index), len(st.content)
	return st
}
