// Package sim runs message-level simulations of the paper's scenario: a
// population of churning peers holding randomly replicated content,
// querying with Zipf-distributed frequencies, under one of six strategies —
// broadcast everything (noIndex, eq. 12), index everything (indexAll,
// eq. 11), ideal partial indexing with oracle knowledge (eq. 13), the
// decentralized TTL selection algorithm (eq. 17, the paper's contribution),
// the selection algorithm under the live adaptive control plane
// (internal/adapt), which retunes keyTtl and gates below-fMin inserts from
// online frequency sketches, and the distributed top-k query plane
// (internal/topk) over the same population.
//
// It is the measurement side of the reproduction: the analytical package
// predicts message rates, this package counts actual messages from actual
// floods, walks, lookups, gossip and probes over the substrates in
// internal/overlay and internal/dht, with simcore's replica groups built
// as overlay graphs.
package sim

import (
	"fmt"

	"pdht/internal/adapt"
	"pdht/internal/churn"
	"pdht/internal/model"
	"pdht/internal/stats"
	"pdht/internal/workload"
)

// Strategy selects how queries are answered.
type Strategy int

const (
	// StrategyNoIndex answers every query with an unstructured search.
	StrategyNoIndex Strategy = iota
	// StrategyIndexAll maintains a DHT over all keys and answers every
	// query from it, paying proactive update propagation.
	StrategyIndexAll
	// StrategyPartialIdeal is the Section-4 oracle: peers know which
	// keys are indexed (the maxRank most popular); queries for them go
	// to the index, the rest go straight to broadcast.
	StrategyPartialIdeal
	// StrategyPartialTTL is the Section-5 selection algorithm: no
	// global knowledge, TTL-cached entries, insert-on-miss.
	StrategyPartialTTL
	// StrategyPartialAdaptive is the selection algorithm under the live
	// control plane (internal/adapt): an online tuner sketches the query
	// stream, refits the model every tunePeriod rounds, drives keyTtl
	// from the fit, and gates inserts of keys whose estimated rate falls
	// below fMin. The A/B counterpart of StrategyPartialTTL under
	// mid-run popularity shifts.
	StrategyPartialAdaptive
	// StrategyPartialTopK runs the distributed top-k query plane
	// (internal/topk) over the simulated population: multi-term queries
	// resolved by the threshold-algorithm round protocol, with probe
	// schedules from either the adaptive Planner (yield history plus
	// sketch-fed term weights) or the uniform full-fan-out baseline
	// (Config.TopKUniform) — the A/B the adaptive planner's savings are
	// measured on.
	StrategyPartialTopK
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case StrategyNoIndex:
		return "noIndex"
	case StrategyIndexAll:
		return "indexAll"
	case StrategyPartialIdeal:
		return "partial"
	case StrategyPartialTTL:
		return "partialTTL"
	case StrategyPartialAdaptive:
		return "partialAdaptive"
	case StrategyPartialTopK:
		return "partialTopK"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name as printed by String.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{StrategyNoIndex, StrategyIndexAll, StrategyPartialIdeal, StrategyPartialTTL, StrategyPartialAdaptive, StrategyPartialTopK} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown strategy %q (want noIndex, indexAll, partial, partialTTL, partialAdaptive or partialTopK)", name)
}

// The substrate every run is built on: constants, not Config fields.
const (
	// overlayDegree is the unstructured graph's connections per peer.
	overlayDegree = 4
	// walkers is the random-walk search width.
	walkers = 16
	// trieRedundancy is the trie's refs per routing level. The model's
	// routing-table size is log₂(numActivePeers) ≈ depth·1.7, so 2 keeps
	// the probing volume near eq. 8 while surviving churn.
	trieRedundancy = 2
)

// Config describes one simulation run. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	Strategy Strategy

	// Scenario parameters, mirroring model.Params/Table 1.
	Peers int
	Keys  int
	Stor  int
	Repl  int
	Alpha float64
	FQry  float64
	FUpd  float64
	Env   float64

	// KeyTtl in rounds. Zero derives the paper's choice 1/fMin from the
	// analytical model under StrategyPartialTTL; StrategyPartialAdaptive
	// then starts from a coarse 600-round guess its tuner corrects.
	KeyTtl int

	// Run length.
	Rounds       int
	WarmupRounds int

	// Churn; a zero model means a static network.
	Churn churn.Model

	// Shifts optionally rearranges query popularity mid-run.
	Shifts workload.Schedule

	// StrategyPartialTopK content and query shape. Terms are partitioned
	// into TopKGroups groups of TopKGroupSize; each group has TopKCopies
	// copy documents, each matching all of the group's terms, placed at
	// distinct random peers. Queries draw a Zipf-ranked group and ask for
	// the TopKK best documents matching TopKTerms of its terms.
	TopKK         int
	TopKTerms     int
	TopKGroups    int
	TopKGroupSize int
	TopKCopies    int
	// TopKUniform replaces the adaptive Planner with the full-fan-out
	// UniformPlan — the non-adaptive baseline of the A/B.
	TopKUniform bool

	// TraceEvery > 0 records a TracePoint every that many rounds
	// (including warmup), for time-series plots such as the adaptation
	// experiment.
	TraceEvery int

	// CollectKeyCounts records per-key query counts over the measurement
	// window (Result.KeyQueryCounts) — the observable a deployment would
	// feed zipf.EstimateAlpha to calibrate the model from live traffic.
	CollectKeyCounts bool

	Seed uint64
}

// TracePoint is one time-series sample of a traced run.
type TracePoint struct {
	Round       int
	HitRate     float64 // fraction of window queries answered from the index
	AnswerRate  float64 // fraction of window queries answered at all
	IndexedKeys int
	MsgPerRound float64 // window message rate
}

// DefaultConfig returns a laptop-scale version of the paper's scenario:
// the Table 1 proportions at one-tenth population, which keeps every
// cost relationship intact while letting the full strategy × frequency
// sweep run in seconds.
func DefaultConfig() Config {
	return Config{
		Strategy:      StrategyPartialTTL,
		Peers:         2000,
		Keys:          4000,
		Stor:          100,
		Repl:          20,
		Alpha:         1.2,
		FQry:          1.0 / 30.0,
		FUpd:          1.0 / 86400.0,
		Env:           1.0 / 14.0,
		Rounds:        300,
		WarmupRounds:  50,
		TopKK:         5,
		TopKTerms:     3,
		TopKGroups:    200,
		TopKGroupSize: 4,
		TopKCopies:    20,
		Seed:          1,
	}
}

// ModelParams translates the scenario into the analytical model's Params;
// the duplication factors, which only the prediction columns read, are the
// paper's (model.DefaultScenario).
func (c Config) ModelParams() model.Params {
	d := model.DefaultScenario()
	return model.Params{
		NumPeers: c.Peers,
		Keys:     c.Keys,
		Stor:     c.Stor,
		Repl:     c.Repl,
		Alpha:    c.Alpha,
		FQry:     c.FQry,
		FUpd:     c.FUpd,
		Env:      c.Env,
		Dup:      d.Dup,
		Dup2:     d.Dup2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.ModelParams().Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	switch {
	case c.Strategy < StrategyNoIndex || c.Strategy > StrategyPartialTopK:
		return fmt.Errorf("sim: unknown strategy %d", int(c.Strategy))
	case c.Peers <= overlayDegree:
		return fmt.Errorf("sim: Peers %d must exceed the overlay degree %d", c.Peers, overlayDegree)
	case c.TraceEvery < 0:
		return fmt.Errorf("sim: TraceEvery %d must be non-negative", c.TraceEvery)
	case c.Rounds < 1:
		return fmt.Errorf("sim: Rounds %d must be positive", c.Rounds)
	case c.WarmupRounds < 0:
		return fmt.Errorf("sim: WarmupRounds %d must be non-negative", c.WarmupRounds)
	case c.KeyTtl < 0:
		return fmt.Errorf("sim: KeyTtl %d must be non-negative", c.KeyTtl)
	}
	if c.Strategy == StrategyPartialTopK {
		switch {
		case c.TopKK < 1:
			return fmt.Errorf("sim: TopKK %d must be positive", c.TopKK)
		case c.TopKTerms < 1 || c.TopKTerms > c.TopKGroupSize:
			return fmt.Errorf("sim: TopKTerms %d out of [1,%d]", c.TopKTerms, c.TopKGroupSize)
		case c.TopKGroups < 1:
			return fmt.Errorf("sim: TopKGroups %d must be positive", c.TopKGroups)
		case c.TopKCopies < 1 || c.TopKCopies > c.Peers:
			return fmt.Errorf("sim: TopKCopies %d out of [1,%d]", c.TopKCopies, c.Peers)
		}
	}
	if c.Churn.MeanOnline != 0 || c.Churn.MeanOffline != 0 {
		if err := c.Churn.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Result is the measured outcome of one run.
type Result struct {
	Config Config
	// MeasuredRounds is the number of rounds inside the measurement
	// window.
	MeasuredRounds int
	// MsgPerRound is the measured total message rate — the quantity on
	// Fig. 1's y-axis.
	MsgPerRound float64
	// ByClass breaks the rate down into the model's cost components.
	ByClass map[stats.MsgClass]float64
	// Queries and Answered count query outcomes in the window.
	Queries  int
	Answered int
	// HitRate is the fraction of queries answered from the index — the
	// measured pIndxd.
	HitRate float64
	// MeanIndexedKeys is the time-averaged number of live index keys —
	// the measured eq. 15.
	MeanIndexedKeys float64
	// MeanLookupHops is the measured per-lookup routing cost — the
	// quantity eq. 7 models as ½·log₂(numActivePeers).
	MeanLookupHops float64
	// RouteFailures counts lookups that never reached a responsible
	// peer (stale routing state under churn).
	RouteFailures int
	// ActivePeers is how many peers the DHT was provisioned with (0 for
	// noIndex).
	ActivePeers int
	// KeyTtlUsed is the TTL the run actually used (derived or given).
	KeyTtlUsed int
	// ModelMsgPerRound is the analytical prediction for this strategy at
	// these parameters, for side-by-side comparison.
	ModelMsgPerRound float64
	// Trace holds the time series when Config.TraceEvery > 0.
	Trace []TracePoint
	// KeyQueryCounts holds per-key query counts over the measurement
	// window when Config.CollectKeyCounts is set, indexed by key index.
	KeyQueryCounts []int
	// GatedInserts counts broadcast-resolved keys the fMin gate refused
	// to index; Tuner is the control plane's final state. Both are zero
	// values unless Strategy == StrategyPartialAdaptive.
	GatedInserts int
	Tuner        adapt.Snapshot
	// TopKLegsPerQuery is the mean OpTopK wire legs one top-k query paid
	// and TopKEarlyRate the fraction that terminated before draining every
	// peer — StrategyPartialTopK's cost and savings figures (zero
	// otherwise).
	TopKLegsPerQuery float64
	TopKEarlyRate    float64
}

// IndexFraction returns the measured mean index size as a fraction of all
// keys (Fig. 3's solid curve).
func (r Result) IndexFraction() float64 {
	if r.Config.Keys == 0 {
		return 0
	}
	return r.MeanIndexedKeys / float64(r.Config.Keys)
}

// numActiveFor sizes the DHT for an expected steady-state index of
// expectedKeys keys. The model's numActivePeers = keys·repl/stor assumes
// perfect packing; a binary trie needs a power-of-two leaf count, and every
// leaf member replicates every key of the leaf, so leaves are chosen
// capacity-first: the smallest power of two with leaves·stor ≥ expectedKeys,
// at repl peers per leaf. The result slightly over-provisions relative to
// the model (documented in EXPERIMENTS.md) but never overflows peer caches.
func numActiveFor(p model.Params, expectedKeys float64) int {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	leaves := 1
	for float64(leaves)*float64(p.Stor) < expectedKeys {
		leaves <<= 1
	}
	active := leaves * p.Repl
	if active > p.NumPeers {
		// Population-bound: fall back to the largest power-of-two
		// leaf count the population can fill, accepting evictions.
		leaves = 1
		for (leaves<<1)*p.Repl <= p.NumPeers {
			leaves <<= 1
		}
		active = leaves * p.Repl
	}
	if active < p.Repl {
		active = p.Repl
	}
	return active
}
