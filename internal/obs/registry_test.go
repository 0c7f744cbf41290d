package obs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the registry the exposition golden file pins: one
// family of each kind, multi-series families, label escaping, histogram
// expansion, and the specials (+Inf, integer-valued floats).
func goldenRegistry() *Registry {
	r := NewRegistry()
	q := r.Counter("pdht_node_queries_total", "Queries answered by this node.")
	q.Add(41)
	q.Inc()
	r.Counter("pdht_transport_requests_total", "Outbound RPCs by operation.", L("op", "query")).Add(7)
	r.Counter("pdht_transport_requests_total", "Outbound RPCs by operation.", L("op", "insert")).Add(2)
	r.Counter("pdht_obs_escaped_total", "Label escaping.", L("path", `a\b"c`+"\nd")).Inc()
	g := r.Gauge("pdht_transport_inflight", "Outbound RPCs in flight.")
	g.Add(3)
	g.Dec()
	r.GaugeFunc("pdht_adapt_fmin", "Fitted indexing threshold fMin (queries/round).", func() float64 {
		return math.Inf(1)
	})
	r.GaugeFunc("pdht_adapt_keyttl", "Actuated keyTtl (rounds).", func() float64 { return 120 })
	h := r.Histogram("pdht_node_query_seconds", "Query latency by outcome.",
		[]float64{0.001, 0.01, 0.1}, L("outcome", "hit"))
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second) // overflows the ladder into +Inf
	// A DefBuckets histogram pins the default ladder itself — including the
	// sub-millisecond bounds loopback RPCs actually land in.
	d := r.Histogram("pdht_transport_request_seconds", "RPC round-trip latency.", nil)
	d.Observe(3 * time.Microsecond)
	d.Observe(40 * time.Microsecond)
	d.Observe(300 * time.Microsecond)
	return r
}

// TestWritePrometheusGolden pins the exposition format byte for byte:
// HELP/TYPE lines, name ordering, label escaping, histogram
// _bucket/_sum/_count expansion, +Inf rendering.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Errorf("exposition diverged from golden file;\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pdht_x_total", "x", L("op", "a"))
	b := r.Counter("pdht_x_total", "x", L("op", "a"))
	if a != b {
		t.Error("same (name, labels) returned two counters")
	}
	c := r.Counter("pdht_x_total", "x", L("op", "b"))
	if a == c {
		t.Error("different labels returned the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("aliased counter reads %d, want 1", b.Value())
	}
}

func TestRegistrationKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pdht_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("pdht_x_total", "x")
}

func TestHistogramQuantiles(t *testing.T) {
	// Quantiles are read off the snapshot point, the one estimator a node's
	// report and the merged fleet report share.
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Test latency.", []float64{0.010, 0.100, 1.0})
	over := r.Histogram("test_overflow_seconds", "Test overflow.", []float64{0.001})
	point := func(name string) SnapPoint {
		t.Helper()
		fam := r.Snapshot().Family(name)
		if len(fam) != 1 {
			t.Fatalf("snapshot holds %d series of %s, want 1", len(fam), name)
		}
		return fam[0]
	}
	if _, ok := point("test_latency_seconds").Quantile(0.5); ok {
		t.Error("empty histogram produced a quantile")
	}
	// 90 fast (≤10ms), 9 medium (≤100ms), 1 slow (≤1s).
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p := point("test_latency_seconds")
	p50, _ := p.Quantile(0.50)
	if p50 <= 0 || p50 > 10*time.Millisecond {
		t.Errorf("p50 = %v, want within the ≤10ms bucket", p50)
	}
	p99, _ := p.Quantile(0.99)
	if p99 <= 10*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v, want within the (10ms, 100ms] bucket", p99)
	}
	p999, _ := p.Quantile(0.999)
	if p999 <= 100*time.Millisecond || p999 > time.Second {
		t.Errorf("p99.9 = %v, want within the (100ms, 1s] bucket", p999)
	}
	// The overflow bucket clamps to the last finite bound.
	over.Observe(time.Minute)
	if q, _ := point("test_overflow_seconds").Quantile(0.5); q != time.Millisecond {
		t.Errorf("overflow quantile = %v, want clamp to 1ms", q)
	}
}

func TestEscapeLabel(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:      `plain`,
		`a"b`:        `a\"b`,
		`a\b`:        `a\\b`,
		"a\nb":       `a\nb`,
		`mem-0:7070`: `mem-0:7070`,
	} {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
