package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// A member answers OpStats with a Snapshot it wrote, so every field of
// one is a peer's to choose. FuzzFleetReport decodes arbitrary JSON into
// two snapshots and holds Merge and BuildFleetReport to what pdht-top and
// /report need from them: no panic, a report that marshals (so every float
// in it is finite), and the same bytes whichever peer answered first. The
// seed corpus is committed under testdata/fuzz; `make fuzz-smoke` runs it
// for 20 s.
func FuzzFleetReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		var a, b Snapshot
		if json.Unmarshal(rawA, &a) != nil || json.Unmarshal(rawB, &b) != nil {
			return
		}
		// As ClusterReport does: a snapshot that names no peer gets the
		// address it was fetched from.
		if a.Addr == "" {
			a.Addr = "a"
		}
		if b.Addr == "" {
			b.Addr = "b"
		}
		ab := fleetReportJSON(t, a, b)
		// Rows sort by address, so only distinct ones have an order to be
		// independent of.
		if ba := fleetReportJSON(t, b, a); a.Addr != b.Addr && !bytes.Equal(ab, ba) {
			t.Fatalf("report depends on arrival order:\n%s\n%s", ab, ba)
		}
	})
}

// fleetReportJSON builds and encodes the report over the two snapshots.
// encoding/json refuses NaN and ±Inf, so a report that marshals is one
// whose every float is finite.
func fleetReportJSON(t *testing.T, a, b Snapshot) []byte {
	out, err := json.Marshal(BuildFleetReport([]Snapshot{a, b}))
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	return out
}

// TestFleetReportSurvivesHostilePeer is the reproduction FuzzFleetReport's
// +Inf seed came from: one member whose counters read +Inf, one honest
// member. The report must encode, and the honest row must read as it would
// alone.
func TestFleetReportSurvivesHostilePeer(t *testing.T) {
	honest := fleetSnap("127.0.0.1:7090", 600, 480, 1500, 300, 118, 0.25, 4096, 3,
		[]time.Duration{2 * time.Millisecond}, []time.Duration{50 * time.Millisecond})
	hostile := Snapshot{Addr: "127.0.0.1:7666", Points: []SnapPoint{
		{Name: fleetQueries, Kind: "counter", Special: "+Inf"},
		{Name: fleetHits, Kind: "counter", Special: "+Inf"},
		// A ladder no registry emits: unsorted bounds, counts that do not
		// sum to Count.
		{Name: fleetQuerySeconds, Kind: "histogram", Labels: []Label{L("outcome", "hit")},
			Bounds: []float64{0.001, 0.01, 0.1}, Counts: []uint64{0, 0, 0, 1 << 40}, Count: 7},
	}}
	fr := BuildFleetReport([]Snapshot{hostile, honest})
	if _, err := json.Marshal(fr); err != nil {
		t.Fatalf("one hostile peer made the fleet report unencodable: %v", err)
	}
	alone := BuildFleetReport([]Snapshot{honest})
	if !reflect.DeepEqual(fr.Peers[0], alone.Peers[0]) {
		t.Errorf("honest row changed next to a hostile peer:\ngot  %+v\nwant %+v", fr.Peers[0], alone.Peers[0])
	}
	if fr.Peers[1].HitRate != 0 || fr.Peers[1].P99 != 0 {
		t.Errorf("hostile row kept its inventions: %+v", fr.Peers[1])
	}
	// The hit histogram degraded, so the pooled quantiles stand down
	// rather than interpolate over the invented ladder.
	if fr.P99 != 0 {
		t.Errorf("pooled p99 = %v over a ladder one peer invented", fr.P99)
	}
}
