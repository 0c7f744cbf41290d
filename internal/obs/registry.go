// Package obs is the live telemetry plane of the node subsystem: a
// zero-dependency metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms, allocation-free on the hot path), a per-query trace
// that records every leg of the selection algorithm with its duration and
// outcome, a ring-buffered slow-query log, and the debug HTTP handler that
// exposes all of it — /metrics in Prometheus text exposition format
// (hand-rolled, no client library), /report and /traces as JSON, /healthz,
// and net/http/pprof.
//
// The paper's premise is that a peer steers itself from measurements of its
// own query stream; this package is where those measurements become
// scrapeable. internal/transport, internal/node, internal/gossip and
// internal/adapt each register their metrics here under the
// pdht_<layer>_<name> naming scheme (see DESIGN.md "Observability"), and
// node.Report becomes a view over the same registry the /metrics endpoint
// serves, so the two surfaces can never disagree.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant name="value" pair attached to a metric at
// registration time — the per-op and per-outcome dimensions of the
// exposition. Labels are fixed for the metric's lifetime; there is no
// dynamic label lookup on the hot path.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64. Inc and Add are single
// atomic operations: safe for concurrent use, zero allocations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value — an in-flight count, a view
// version, an index size. All operations are single atomics.
type Gauge struct {
	v atomic.Int64
}

// Set installs an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one; Dec subtracts one; Add adds delta.
func (g *Gauge) Inc()            { g.v.Add(1) }
func (g *Gauge) Dec()            { g.v.Add(-1) }
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency histogram bounds, in seconds: 1µs to
// 10s in a coarse exponential ladder. The memory-transport hot path lands
// in the single-digit microseconds, TCP RPCs in the tens-to-hundreds, churn
// recovery and timeouts in the second decades; all three ends must resolve
// or test/bench quantiles collapse into one bucket.
var DefBuckets = []float64{
	.000001, .0000025, .000005, .00001, .000025,
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01,
	.025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram: cumulative-style Prometheus
// exposition and atomic per-bucket counts; quantiles are read off its
// snapshot point (SnapPoint.Quantile). Observe is a bucket scan plus three atomics — no locks, no
// allocations — so it can sit on the per-RPC hot path.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Uint64
	over   atomic.Uint64 // observations above the last bound (+Inf bucket)
	sumNs  atomic.Int64
	total  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

// Count returns the number of observations; Sum their total duration.
func (h *Histogram) Count() uint64      { return h.total.Load() }
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// metricKind is the Prometheus TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric: a label set plus its value source.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	histo   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds a process's metric families and renders them in Prometheus
// text exposition format. Registration is idempotent per (name, labels):
// registering the same counter twice returns the same *Counter, so wiring
// code never has to thread metric handles around. Registration takes a
// lock; the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or finds) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	return s.counter
}

// Gauge registers (or finds) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time — the
// bridge for state that already lives elsewhere (a tuner's fitted fMin, a
// view version behind a lock). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func() *series {
		return &series{gaugeFn: fn}
	})
}

// CounterFunc registers a counter whose value is read at scrape time — the
// bridge for monotone counts that accumulate before (or independently of)
// registration, like a persistence layer's WAL append count that starts at
// recovery, before the owning node's registry exists. fn must be safe for
// concurrent use and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func() *series {
		return &series{gaugeFn: fn}
	})
}

// Histogram registers (or finds) the histogram name{labels} with the given
// bucket upper bounds in seconds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels, func() *series {
		return &series{histo: newHistogram(bounds)}
	})
	return s.histo
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		sort.Strings(r.order)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	sig := labelSignature(labels)
	for _, s := range f.series {
		if labelSignature(s.labels) == sig {
			return s
		}
	}
	s := build()
	s.labels = append([]Label(nil), labels...)
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool {
		return labelSignature(f.series[i].labels) < labelSignature(f.series[j].labels)
	})
	return s
}

func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines once per
// family, one sample line per series, histogram series expanded into
// cumulative _bucket/_sum/_count samples. Families print in name order so
// the output is diff-stable — the golden-file tests depend on it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			writeSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		sampleLine(b, f.name, s.labels, "", "", formatUint(s.counter.Value()))
	case s.gauge != nil:
		sampleLine(b, f.name, s.labels, "", "", formatInt(s.gauge.Value()))
	case s.gaugeFn != nil:
		sampleLine(b, f.name, s.labels, "", "", formatFloat(s.gaugeFn()))
	case s.histo != nil:
		h := s.histo
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			sampleLine(b, f.name+"_bucket", s.labels, "le", formatFloat(bound), formatUint(cum))
		}
		cum += h.over.Load()
		sampleLine(b, f.name+"_bucket", s.labels, "le", "+Inf", formatUint(cum))
		sampleLine(b, f.name+"_sum", s.labels, "", "", formatFloat(h.Sum().Seconds()))
		sampleLine(b, f.name+"_count", s.labels, "", "", formatUint(cum))
	}
}

// sampleLine writes one `name{labels} value` line; extraName/extraValue
// append the histogram "le" label after the registered ones.
func sampleLine(b *strings.Builder, name string, labels []Label, extraName, extraValue, value string) {
	b.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline (quotes are legal
// in help text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatUint(v uint64) string { return fmt.Sprintf("%d", v) }
func formatInt(v int64) string   { return fmt.Sprintf("%d", v) }

// formatFloat renders a float the way Prometheus expects: integers without
// a decimal point, specials as +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
