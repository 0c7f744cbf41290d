package obs

import (
	"math"
	"sort"
	"time"
)

// SnapPoint is one metric series frozen at snapshot time, in a form that
// crosses the wire as JSON and merges across peers: counters and gauges
// carry a single sample, histograms carry their full bucket vector so a
// fleet-level quantile can be computed from bucket-wise sums rather than
// averaging per-peer quantiles (which is statistically meaningless).
type SnapPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	// Kind is the family's Prometheus type: "counter", "gauge",
	// "histogram".
	Kind string `json:"kind"`
	// Value is the sample for counters and gauges. encoding/json cannot
	// carry non-finite floats, and a GaugeFunc legitimately reads NaN or
	// +Inf (an adaptive tuner's fMin before the first fit) — those travel
	// in Special instead, with Value zeroed. Read through Sample().
	Value float64 `json:"value,omitempty"`
	// Special holds a non-finite sample as "NaN", "+Inf" or "-Inf".
	Special string `json:"special,omitempty"`
	// Bounds and Counts carry a histogram: per-bound observation counts
	// (non-cumulative) plus one trailing overflow element, so
	// len(Counts) == len(Bounds)+1.
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	// Sum is the histogram's total observed duration in seconds; Count
	// its observation count.
	Sum   float64 `json:"sum,omitempty"`
	Count uint64  `json:"count,omitempty"`
}

// Sample returns the point's counter/gauge value with non-finite specials
// restored.
func (p SnapPoint) Sample() float64 {
	switch p.Special {
	case "NaN":
		return math.NaN()
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	}
	return p.Value
}

// setSample stores v, routing non-finite values through Special so the
// point survives encoding/json.
func (p *SnapPoint) setSample(v float64) {
	switch {
	case math.IsNaN(v):
		p.Value, p.Special = 0, "NaN"
	case math.IsInf(v, 1):
		p.Value, p.Special = 0, "+Inf"
	case math.IsInf(v, -1):
		p.Value, p.Special = 0, "-Inf"
	default:
		p.Value, p.Special = v, ""
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram point by
// linear interpolation within the bucket that holds it, the standard
// fixed-bucket estimator, so a merged fleet histogram answers p99 exactly as
// a single node's would. An answer from the overflow bucket clamps to the
// last finite bound: the histogram cannot resolve beyond its ladder. Returns
// ok=false for non-histogram points, empty histograms, or a point whose
// bucket vector a merge dropped (mismatched or malformed ladder).
func (p SnapPoint) Quantile(q float64) (time.Duration, bool) {
	if len(p.Bounds) == 0 || len(p.Counts) != len(p.Bounds)+1 || p.Count == 0 || math.IsNaN(q) {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(p.Count)
	var seen float64
	lower := 0.0
	for i, bound := range p.Bounds {
		n := float64(p.Counts[i])
		if seen+n >= rank && n > 0 {
			frac := (rank - seen) / n
			sec := lower + (bound-lower)*frac
			return time.Duration(sec * float64(time.Second)), true
		}
		seen += n
		lower = bound
	}
	return time.Duration(p.Bounds[len(p.Bounds)-1] * float64(time.Second)), true
}

// Snapshot is one peer's registry frozen at a point in time: the payload of
// the OpStats RPC and the unit obs.Merge combines into a fleet view.
type Snapshot struct {
	// Addr identifies the peer the snapshot was taken from; the merged
	// fleet snapshot leaves it empty.
	Addr   string      `json:"addr,omitempty"`
	Points []SnapPoint `json:"points"`
}

// Snapshot freezes every registered series. Counter/gauge values are read
// atomically; GaugeFunc/CounterFunc sources are invoked, exactly as a
// scrape would. Points come out sorted by (name, label signature), the
// order Merge relies on.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	var snap Snapshot
	for _, f := range fams {
		for _, s := range f.series {
			p := SnapPoint{
				Name:   f.name,
				Labels: append([]Label(nil), s.labels...),
				Kind:   f.kind.String(),
			}
			switch {
			case s.counter != nil:
				p.setSample(float64(s.counter.Value()))
			case s.gauge != nil:
				p.setSample(float64(s.gauge.Value()))
			case s.gaugeFn != nil:
				p.setSample(s.gaugeFn())
			case s.histo != nil:
				h := s.histo
				p.Bounds = append([]float64(nil), h.bounds...)
				p.Counts = make([]uint64, len(h.bounds)+1)
				for i := range h.counts {
					p.Counts[i] = h.counts[i].Load()
				}
				p.Counts[len(h.bounds)] = h.over.Load()
				p.Sum = h.Sum().Seconds()
				// The buckets just read, not h.Count(): observations
				// landing mid-scrape must not break Σ Counts == Count,
				// which Merge holds every peer's ladder to.
				for _, c := range p.Counts {
					p.Count += c
				}
			}
			snap.Points = append(snap.Points, p)
		}
	}
	return snap
}

// Value returns the sample of the counter/gauge series name{labels}, with
// ok=false when the snapshot has no such series.
func (s Snapshot) Value(name string, labels ...Label) (float64, bool) {
	sig := labelSignature(labels)
	for _, p := range s.Points {
		if p.Name == name && labelSignature(p.Labels) == sig {
			return p.Sample(), true
		}
	}
	return 0, false
}

// Family returns every series of the named family.
func (s Snapshot) Family(name string) []SnapPoint {
	var out []SnapPoint
	for _, p := range s.Points {
		if p.Name == name {
			out = append(out, p)
		}
	}
	return out
}

// SumAcross sums the samples of every series in the named family — the
// per-class message counters collapsed into one total, for example.
func (s Snapshot) SumAcross(name string) float64 {
	var sum float64
	for _, p := range s.Family(name) {
		sum += p.Sample()
	}
	return sum
}

// MergeHistograms folds every series of the named histogram family into a
// single point — e.g. pdht_node_query_seconds merged across its per-outcome
// series so one quantile covers hits, broadcasts and misses together.
func (s Snapshot) MergeHistograms(name string) (SnapPoint, bool) {
	var merged SnapPoint
	found := false
	for _, p := range s.Family(name) {
		if p.Kind != "histogram" {
			continue
		}
		p = checkLadder(p)
		if !found {
			merged = p
			merged.Labels = nil
			merged.Counts = append([]uint64(nil), p.Counts...)
			found = true
			continue
		}
		merged = mergeHistogramPoints(merged, p)
	}
	return merged, found
}

// Merge combines per-peer snapshots into one fleet-wide snapshot: counter
// and gauge samples sum, histograms with identical bucket ladders merge
// bucket-wise (so quantiles of the merged point are quantiles of the pooled
// observations). Histograms whose ladders disagree — a mid-upgrade fleet —
// or that no Registry could have emitted (checkLadder) degrade to Sum/Count
// only, and the degradation is sticky, which together with the sorted
// output makes Merge associative and independent of peer order. A series a
// snapshot repeats counts once, as Value reads it. The merged snapshot has
// no Addr.
func Merge(snaps ...Snapshot) Snapshot {
	type key struct {
		name string
		sig  string
	}
	type acc struct {
		SnapPoint
		snap int // the last snapshot that contributed
	}
	byKey := make(map[key]*acc)
	var order []key
	for i, s := range snaps {
		for _, p := range s.Points {
			p = checkLadder(p)
			k := key{p.Name, labelSignature(p.Labels)}
			a, ok := byKey[k]
			switch {
			case !ok:
				p.Labels = append([]Label(nil), p.Labels...)
				p.Bounds = append([]float64(nil), p.Bounds...)
				p.Counts = append([]uint64(nil), p.Counts...)
				byKey[k] = &acc{p, i}
				order = append(order, k)
			case a.snap == i: // a repeat within one snapshot
			case a.Kind == "histogram" || p.Kind == "histogram":
				a.SnapPoint, a.snap = mergeHistogramPoints(a.SnapPoint, p), i
			default:
				a.setSample(a.Sample() + p.Sample())
				a.snap = i
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].sig < order[j].sig
	})
	out := Snapshot{Points: make([]SnapPoint, 0, len(order))}
	for _, k := range order {
		out.Points = append(out.Points, byKey[k].SnapPoint)
	}
	return out
}

// mergeHistogramPoints merges b into a. Identical bounds merge bucket-wise;
// anything else (mismatched ladders, an already-degraded side, a side that
// is no histogram) drops the bucket vector and keeps the exact Sum/Count
// totals. The result is a histogram and carries no sample, whichever side
// came first.
func mergeHistogramPoints(a, b SnapPoint) SnapPoint {
	out := a
	out.Kind, out.Value, out.Special = "histogram", 0, ""
	out.Sum = a.Sum + b.Sum
	out.Count = a.Count + b.Count
	if len(a.Bounds) > 0 && floatsEqual(a.Bounds, b.Bounds) &&
		len(a.Counts) == len(a.Bounds)+1 && len(b.Counts) == len(b.Bounds)+1 {
		counts := make([]uint64, len(a.Counts))
		for i := range counts {
			counts[i] = a.Counts[i] + b.Counts[i]
		}
		out.Counts = counts
		return out
	}
	out.Bounds, out.Counts = nil, nil
	return out
}

// checkLadder returns p with its bucket vector only if a Registry could have
// emitted it: finite, strictly increasing bounds, one count per bound plus
// the overflow, counts that sum to Count. A peer controls every field, and
// Quantile must not interpolate over a ladder one invented; anything else
// keeps Sum/Count alone, like a bounds-mismatched merge.
func checkLadder(p SnapPoint) SnapPoint {
	if len(p.Bounds) == 0 && len(p.Counts) == 0 {
		return p
	}
	ok := len(p.Counts) == len(p.Bounds)+1
	for i, b := range p.Bounds {
		ok = ok && finite(b) && (i == 0 || b > p.Bounds[i-1])
	}
	var total uint64
	for _, c := range p.Counts {
		total += c
	}
	if !ok || total != p.Count {
		p.Bounds, p.Counts = nil, nil
	}
	return p
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
