package store

import (
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// writeFrames encodes recs into one byte slice, the exact bytes Append
// would lay down.
func writeFrames(recs ...Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = encodeFrame(buf, r)
	}
	return buf
}

// TestWALTorture feeds recovery every flavor of on-disk damage a crash (or
// a hostile filesystem) can leave behind. The invariant under test: OpenFile
// never panics and never errors on damaged content — it keeps every intact
// prefix record, reports what it dropped, and leaves the store appendable.
func TestWALTorture(t *testing.T) {
	d := time.Now().Add(time.Hour).Truncate(0)
	intact := []Record{
		{Op: OpInsert, Key: 1, Value: 11, Deadline: d},
		{Op: OpInsert, Key: 2, Value: 22, Deadline: d},
		{Op: OpPublish, Key: 9, Value: 99},
	}
	history := randomHistory(d)
	afterHistory := refReplay(writeFrames(append(intact, history...)...), nil)

	cases := []struct {
		name string
		// mutate damages the on-disk state before reopen. wal starts as
		// the three intact records.
		mutate        func(t *testing.T, dir string, wal []byte) []byte
		wantRecovered int // index + content entries surviving
		wantDropped   int // minimum DroppedRecords
		wantSnapDrop  bool
	}{
		{
			name: "truncated tail mid-frame",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				return wal[:len(wal)-7] // tear the last frame's payload
			},
			wantRecovered: 2,
			wantDropped:   1,
		},
		{
			name: "bit flip in last payload",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				wal[len(wal)-3] ^= 0x40
				return wal
			},
			wantRecovered: 2,
			wantDropped:   1,
		},
		{
			name: "bit flip in first frame drops everything after",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				wal[frameHeaderLen+2] ^= 0x01
				return wal
			},
			wantRecovered: 0,
			wantDropped:   1,
		},
		{
			name: "absurd length field",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				tail := wal[2*(frameHeaderLen+payloadLen):]
				binary.LittleEndian.PutUint32(tail[0:], maxPayload+1)
				return wal
			},
			wantRecovered: 2,
			wantDropped:   1,
		},
		{
			name: "trailing garbage after intact frames",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				return append(wal, 0xde, 0xad, 0xbe, 0xef)
			},
			wantRecovered: 3,
			wantDropped:   1,
		},
		{
			name: "empty WAL no snapshot",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				return []byte{}
			},
			wantRecovered: 0,
		},
		{
			name: "missing WAL entirely",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				os.Remove(filepath.Join(dir, walName))
				return nil // mutate handled the file itself; write nothing
			},
			wantRecovered: 0,
		},
		{
			name: "snapshot with bad magic is dropped, WAL still replays",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("NOTASNAP"), 0o644); err != nil {
					t.Fatal(err)
				}
				return wal
			},
			wantRecovered: 3,
			wantSnapDrop:  true,
		},
		{
			name: "torn snapshot keeps decoded prefix",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				snap := append(append([]byte{}, snapshotMagic...),
					writeFrames(Record{Op: OpInsert, Key: 50, Value: 500, Deadline: d})...)
				snap = append(snap, writeFrames(Record{Op: OpInsert, Key: 51, Value: 510, Deadline: d})[:10]...)
				if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
					t.Fatal(err)
				}
				return wal
			},
			wantRecovered: 4, // 50 from the snapshot prefix + the 3 WAL records
			wantSnapDrop:  true,
		},
		{
			name: "duplicate records after compaction race",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				// The crash window between snapshot rename and WAL truncate:
				// the snapshot already absorbed the WAL's history, so replay
				// sees everything twice. Must converge, not double-count.
				snap := append(append([]byte{}, snapshotMagic...), writeFrames(intact...)...)
				if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
					t.Fatal(err)
				}
				return wal
			},
			wantRecovered: 3,
		},
		{
			name: "compactions at random points between appends",
			mutate: func(t *testing.T, dir string, wal []byte) []byte {
				compactBetweenAppends(t, dir, history, afterHistory)
				return nil
			},
			wantRecovered: len(afterHistory.index) + len(afterHistory.content),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName), writeFrames(intact...), 0o644); err != nil {
				t.Fatal(err)
			}
			if wal := tc.mutate(t, dir, writeFrames(intact...)); wal != nil {
				if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s := openT(t, dir)
			defer s.Close()
			st := s.Stats()
			if got := len(s.Recovered()); got != tc.wantRecovered {
				t.Errorf("recovered %d entries, want %d (stats %+v)", got, tc.wantRecovered, st)
			}
			if st.DroppedRecords < tc.wantDropped {
				t.Errorf("DroppedRecords = %d, want >= %d", st.DroppedRecords, tc.wantDropped)
			}
			if st.SnapshotDropped != tc.wantSnapDrop {
				t.Errorf("SnapshotDropped = %v, want %v", st.SnapshotDropped, tc.wantSnapDrop)
			}
			if tc.wantDropped > 0 && st.TruncatedBytes == 0 && tc.name != "absurd length field" {
				// every drop case here damages the tail, so bytes must be
				// reported (absurd-length damages mid-file length bytes too,
				// but the cut still happens at that offset, counted below)
				t.Errorf("dropped records but TruncatedBytes = 0")
			}

			// The store must remain fully usable after any damage.
			if err := s.Append(Record{Op: OpInsert, Key: 77, Value: 770, Deadline: d}); err != nil {
				t.Fatalf("append after damaged recovery: %v", err)
			}
			s.Close()
			r := openT(t, dir)
			defer r.Close()
			if _, ok := recoveredMap(r)[77]; !ok {
				t.Error("append after damaged recovery did not survive reopen")
			}
		})
	}
}

// TestWALTortureRandomTruncation chops the WAL at every possible byte
// offset; recovery must never panic and must keep exactly the whole frames
// before the cut.
func TestWALTortureRandomTruncation(t *testing.T) {
	d := time.Now().Add(time.Hour)
	full := writeFrames(
		Record{Op: OpInsert, Key: 1, Value: 1, Deadline: d},
		Record{Op: OpInsert, Key: 2, Value: 2, Deadline: d},
		Record{Op: OpPublish, Key: 3, Value: 3},
	)
	frame := frameHeaderLen + payloadLen
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openT(t, dir)
		want := cut / frame
		if got := len(s.Recovered()); got != want {
			t.Fatalf("cut at %d: recovered %d entries, want %d", cut, got, want)
		}
		if cut%frame != 0 && s.Stats().DroppedRecords == 0 {
			t.Fatalf("cut at %d left a partial frame but nothing was reported dropped", cut)
		}
		s.Close()
	}
}

// randomHistory is what a live store journals between compactions:
// inserts, refreshes, expiries, publishes and handoffs at random over a
// few keys, every deadline after d.
func randomHistory(d time.Time) []Record {
	rng := rand.New(rand.NewPCG(49, 1))
	recs := make([]Record, 400)
	for i := range recs {
		rec := Record{Op: Op(1 + rng.IntN(int(OpHandoff))), Key: rng.Uint64N(24), Value: rng.Uint64()}
		if rec.Op == OpInsert || rec.Op == OpRefresh {
			rec.Deadline = d.Add(time.Duration(rng.IntN(3600)) * time.Second)
		}
		recs[i] = rec
	}
	return recs
}

// compactBetweenAppends journals history on the store in dir, compacting
// at random points between the appends, then crashes it (no Close-time
// compaction): a reopen must recover exactly want, the reference fold of
// everything the WAL ever held.
func compactBetweenAppends(t *testing.T, dir string, history []Record, want refState) {
	t.Helper()
	rng := rand.New(rand.NewPCG(49, 2))
	s := openT(t, dir)
	for _, rec := range history {
		if rng.IntN(16) == 0 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.closeRaw()
	r := openT(t, dir)
	defer r.Close()
	index, content := splitRecovered(t, r)
	if !reflect.DeepEqual(index, want.index) || !reflect.DeepEqual(content, want.content) {
		t.Fatalf("reopen recovered index %v content %v, the reference fold says %v and %v", index, content, want.index, want.content)
	}
}
