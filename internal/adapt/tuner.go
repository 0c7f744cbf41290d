package adapt

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pdht/internal/model"
	"pdht/internal/zipf"
)

// gateAll is the threshold sentinel meaning "nothing is worth indexing" —
// no real sketch count reaches it.
const gateAll = math.MaxUint64

// Inputs carries the scenario facts a Tuner cannot measure from the query
// stream itself: cluster shape and the maintenance environment. The caller
// supplies them fresh at each retune so membership changes flow into the
// fitted model.
type Inputs struct {
	// Members is the current membership size (the model's NumPeers).
	Members int
	// Observers is how many peers' queries feed this tuner: 1 on a live
	// node (each peer observes only its own stream), the full population
	// in the simulator (one tuner sees every query). Scales the measured
	// rates from observed to network-wide.
	Observers int
	// Capacity is the per-peer index cache size (stor); Repl the
	// replica-group size, clamped to Members.
	Capacity int
	Repl     int
	// Env is the per-routing-entry per-round probe probability (eq. 8's
	// env). Zero means maintenance-free routing: indexing costs nothing to
	// hold, fMin is zero, and the tuner recommends TTLMax with no gating.
	Env float64
	// RefreshFanout reports that the node keeps replica sets TTL-coherent
	// by fanning the reset-on-hit refresh out to the whole set
	// (internal/replica): every index hit then costs Repl−1 extra write
	// legs, which the fitted model charges against the benefit of indexing
	// so the derived fMin — and through it the keyTtl actuation and the
	// insert gate — stays honest about what a hit really costs.
	RefreshFanout bool
	// WindowRounds is how many rounds elapsed since the previous Retune —
	// the denominator that turns window counts into rates.
	WindowRounds int
}

func (in Inputs) validate() error {
	switch {
	case in.Members < 2:
		return fmt.Errorf("adapt: %d members, need at least 2 to fit the model", in.Members)
	case in.Observers < 1:
		return fmt.Errorf("adapt: Observers %d must be positive", in.Observers)
	case in.Capacity < 1:
		return fmt.Errorf("adapt: Capacity %d must be positive", in.Capacity)
	case in.Repl < 1:
		return fmt.Errorf("adapt: Repl %d must be positive", in.Repl)
	case in.Env < 0 || math.IsNaN(in.Env):
		return fmt.Errorf("adapt: Env %v must be non-negative", in.Env)
	case in.WindowRounds < 1:
		return fmt.Errorf("adapt: WindowRounds %d must be positive", in.WindowRounds)
	}
	return nil
}

// Decision is one retune outcome: the fitted scenario and the two actuated
// knobs (keyTtl and the fMin gate).
type Decision struct {
	// KeyTtl is the recommended expiration time in rounds — the paper's
	// keyTtl = 1/fMin, clamped to [ttlMin, TTLMax].
	KeyTtl int
	// FMin is the fitted indexing threshold of eq. 2, in network-wide
	// queries per round. +Inf means nothing is worth indexing.
	FMin float64
	// Alpha, FQry and DistinctKeys are the fitted scenario: the
	// max-likelihood Zipf exponent of the heavy-hitter counts, the
	// measured per-peer query rate, and the estimated distinct-key count.
	Alpha        float64
	FQry         float64
	DistinctKeys int
	// WindowQueries and WindowRounds are the sample the fit consumed.
	WindowQueries uint64
	WindowRounds  int
	// PredictedHitRate and PredictedIndexSize evaluate eq. 14 / eq. 15 at
	// the fitted scenario and the recommended (clamped) TTL.
	PredictedHitRate   float64
	PredictedIndexSize float64
	// GateThreshold is FMin translated into sketch counts: a key whose
	// windowed count falls below it is not inserted after a broadcast.
	// 0 or 1 disables gating (every insert candidate has count ≥ 1).
	GateThreshold uint64
}

// Snapshot is the Tuner's observable state, for reports.
type Snapshot struct {
	// Last is the most recent successful Decision; Ready reports whether
	// one exists yet.
	Last  Decision
	Ready bool
	// Retunes counts successful retunes; Gated and Allowed the insert
	// decisions taken.
	Retunes, Gated, Allowed uint64
	// Observed is the total number of queries fed to Observe since boot.
	Observed uint64
	// MemoryBytes is the fixed footprint of the frequency summaries — the
	// bounded-memory claim, measurable.
	MemoryBytes int
}

// Tuner is the per-peer control loop: Observe every query (O(1),
// allocation-free), consult ShouldIndex/KeyTtl on every insert (the actuator
// side), and Retune periodically to refit the paper's model to the traffic
// actually seen.
//
// Observe and ShouldIndex are safe for concurrent use with each other and
// with Retune.
type Tuner struct {
	cfg Config

	// mu guards the streaming summaries and window bookkeeping.
	mu     sync.Mutex
	sketch *Sketch
	top    *TopK
	// universe estimates the distinct-key count. It rotates every
	// universeWindows retunes, not every retune: the Zipf fit's fixed
	// point is hypersensitive to undercounting the universe, and a
	// single window of one peer's own queries samples the tail far too
	// thinly. Rates age fast, universes age slowly.
	universe    *Distinct
	universeAge int
	curQueries  uint64 // queries in the open window
	prevQuer    uint64 // queries in the retired window
	prevRounds  int    // length of the retired window
	// Distributed top-k traffic in the open/retired windows: queries
	// coordinated and probe legs paid, feeding the model's
	// TopKRound/TopKProbe charge.
	curTopKQueries, prevTopKQueries uint64
	curTopKLegs, prevTopKLegs       uint64
	last                            Decision
	ready                           bool

	// Actuator state, read lock-free on the insert path.
	threshold atomic.Uint64 // sketch-count gate; 0 = no gating yet
	ttl       atomic.Int64  // recommended keyTtl; 0 = none yet

	retunes, gated, allowed, observed atomic.Uint64
}

// NewTuner returns a tuner with the given configuration (zero fields take
// defaults).
func NewTuner(cfg Config) (*Tuner, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sketch, err := NewSketch(cfg.SketchWidth, sketchDepth)
	if err != nil {
		return nil, err
	}
	top, err := NewTopK(cfg.TopK)
	if err != nil {
		return nil, err
	}
	universe, err := NewDistinct(cfg.DistinctBits)
	if err != nil {
		return nil, err
	}
	return &Tuner{cfg: cfg, sketch: sketch, top: top, universe: universe}, nil
}

// Config returns the effective configuration.
func (t *Tuner) Config() Config { return t.cfg }

// Observe records one query for key — the hot path, O(sketch depth) and
// allocation-free.
func (t *Tuner) Observe(key uint64) {
	t.observed.Add(1)
	t.mu.Lock()
	t.sketch.Observe(key)
	t.top.Observe(key)
	t.universe.Observe(key)
	t.curQueries++
	t.mu.Unlock()
}

// ObserveTopK records one coordinated distributed top-k query and the
// wire legs its round protocol paid. Retune turns the window totals into
// the model's TopKRound (queries per peer per round) and TopKProbe (legs
// per query), so the fitted fMin charges the top-k traffic honestly.
func (t *Tuner) ObserveTopK(legs int) {
	if legs < 0 {
		legs = 0
	}
	t.mu.Lock()
	t.curTopKQueries++
	t.curTopKLegs += uint64(legs)
	t.mu.Unlock()
}

// Count returns key's current windowed query-count estimate from the
// count-min sketch — the term-popularity measure the top-k planner turns
// into probe weights.
func (t *Tuner) Count(key uint64) uint64 {
	t.mu.Lock()
	c := t.sketch.Count(key)
	t.mu.Unlock()
	return c
}

// ShouldIndex is the per-key to-index-or-not decision (§2, applied online):
// it reports whether key's estimated query rate clears the fitted fMin.
// Before the first successful retune every key passes — the system behaves
// exactly like the static policy until the control loop has a model.
func (t *Tuner) ShouldIndex(key uint64) bool {
	th := t.threshold.Load()
	if th <= 1 {
		// No gate yet, or the threshold is below one observation —
		// anything queried at all qualifies.
		t.allowed.Add(1)
		return true
	}
	t.mu.Lock()
	c := t.sketch.Count(key)
	t.mu.Unlock()
	if c >= th {
		t.allowed.Add(1)
		return true
	}
	t.gated.Add(1)
	return false
}

// KeyTtl returns the current recommended expiration time in rounds, with
// ok=false before the first successful retune (keep the configured static
// value until then).
func (t *Tuner) KeyTtl() (int, bool) {
	ttl := t.ttl.Load()
	if ttl <= 0 {
		return 0, false
	}
	return int(ttl), true
}

// Retune closes the current observation window and refits the model: the
// heavy-hitter counts yield the Zipf exponent, the bitmap the distinct-key
// estimate, the window volume the query rate; model.Solve derives fMin and
// keyTtl = 1/fMin from them. The summaries rotate whether or not the fit
// succeeds, so stale traffic ages out even through idle periods.
func (t *Tuner) Retune(in Inputs) (Decision, error) {
	if err := in.validate(); err != nil {
		return Decision{}, err
	}
	if in.Repl > in.Members {
		in.Repl = in.Members
	}

	t.mu.Lock()
	// Rank counts for the exponent fit: the heavy-hitter list names the
	// keys, the sketch supplies their clean one-to-two-window counts
	// (TopK's own counts are geometrically decayed, which distorts a fit).
	counts := make([]int, 0, t.top.Len())
	for _, k := range t.top.Keys() {
		if c := t.sketch.Count(k); c > 0 {
			counts = append(counts, int(c))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	distinctEst := t.universe.Estimate()
	totalQ := t.curQueries + t.prevQuer
	totalRounds := in.WindowRounds + t.prevRounds
	// Rotate: the open window retires, the retired one is forgotten. The
	// universe bitmap turns over on its own, slower cadence.
	t.sketch.Rotate()
	t.top.Decay()
	t.universeAge++
	if t.universeAge >= universeWindows {
		t.universe.Rotate()
		t.universeAge = 0
	}
	t.prevQuer, t.curQueries = t.curQueries, 0
	t.prevRounds = in.WindowRounds
	totalTopKQ := t.curTopKQueries + t.prevTopKQueries
	totalTopKLegs := t.curTopKLegs + t.prevTopKLegs
	t.prevTopKQueries, t.curTopKQueries = t.curTopKQueries, 0
	t.prevTopKLegs, t.curTopKLegs = t.curTopKLegs, 0
	t.mu.Unlock()

	if totalQ == 0 {
		return Decision{}, fmt.Errorf("adapt: no queries observed in %d rounds", totalRounds)
	}

	distinct := distinctEst
	if distinct < len(counts) {
		distinct = len(counts)
	}
	if distinct < 2 {
		distinct = 2
	}
	// dup, dup2 and the fallback α for an ill-posed Zipf fit (fewer than
	// two distinct observed counts) are the literature constants of the
	// paper's scenario: the model's only inputs a peer cannot observe.
	lit := model.DefaultScenario()
	alpha, err := zipf.EstimateAlpha(counts, distinct)
	if err != nil {
		alpha = lit.Alpha
	}
	fQry := float64(totalQ) / float64(totalRounds) / float64(in.Observers)

	p := model.Params{
		NumPeers: in.Members,
		Keys:     distinct,
		Stor:     in.Capacity,
		Repl:     in.Repl,
		Alpha:    alpha,
		FQry:     fQry,
		FUpd:     0, // the selection algorithm pays no proactive updates
		Env:      in.Env,
		Dup:      lit.Dup,
		Dup2:     lit.Dup2,
	}
	if in.RefreshFanout {
		// The extra write legs of the replica-coherent refresh (the hit
		// peer itself rides the probe's round trip; the other Repl−1
		// members cost one message each).
		p.WriteFanout = float64(in.Repl - 1)
	}
	if totalTopKQ > 0 {
		// Charge the measured top-k traffic: per-peer query rate and the
		// average probe legs one query cost in the window.
		p.TopKRound = float64(totalTopKQ) / float64(totalRounds) / float64(in.Observers)
		p.TopKProbe = float64(totalTopKLegs) / float64(totalTopKQ)
	}
	dist, err := zipf.New(alpha, distinct)
	if err != nil {
		return Decision{}, fmt.Errorf("adapt: %w", err)
	}
	sol, err := model.Solve(p, dist)
	if err != nil {
		return Decision{}, fmt.Errorf("adapt: %w", err)
	}

	d := Decision{
		FMin:          sol.FMin,
		Alpha:         alpha,
		FQry:          fQry,
		DistinctKeys:  distinct,
		WindowQueries: totalQ,
		WindowRounds:  totalRounds,
	}
	// Expected sketch coverage when the gate is consulted mid-window: the
	// just-retired window plus, on average, half the next one. The §5.1.1
	// sensitivity analysis is what makes this approximation safe — ±50%
	// on the threshold barely moves the savings.
	expectedRounds := float64(in.WindowRounds) * 1.5
	switch {
	case math.IsInf(sol.FMin, 1):
		// Broadcasting beats the index outright; hold nothing.
		d.KeyTtl = ttlMin
		d.GateThreshold = gateAll
	case sol.FMin <= 0:
		// Maintenance-free indexing: everything is worth keeping.
		d.KeyTtl = t.cfg.TTLMax
		d.GateThreshold = 0
	default:
		d.KeyTtl = clamp(int(math.Round(1/sol.FMin)), ttlMin, t.cfg.TTLMax)
		d.GateThreshold = uint64(math.Ceil(sol.FMin * expectedRounds * float64(in.Observers) / float64(in.Members)))
	}
	ttlSol, err := model.SolveTTL(p, dist, float64(d.KeyTtl))
	if err != nil {
		return Decision{}, fmt.Errorf("adapt: %w", err)
	}
	d.PredictedHitRate = ttlSol.PIndxd
	d.PredictedIndexSize = ttlSol.IndexSize

	t.threshold.Store(d.GateThreshold)
	t.ttl.Store(int64(d.KeyTtl))
	t.retunes.Add(1)
	t.mu.Lock()
	t.last = d
	t.ready = true
	t.mu.Unlock()
	return d, nil
}

// Snapshot returns the tuner's observable state.
func (t *Tuner) Snapshot() Snapshot {
	t.mu.Lock()
	last, ready := t.last, t.ready
	mem := t.sketch.MemoryBytes() + t.universe.MemoryBytes() + 32*t.cfg.TopK
	t.mu.Unlock()
	return Snapshot{
		Last:        last,
		Ready:       ready,
		Retunes:     t.retunes.Load(),
		Gated:       t.gated.Load(),
		Allowed:     t.allowed.Load(),
		Observed:    t.observed.Load(),
		MemoryBytes: mem,
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
