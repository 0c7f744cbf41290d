// Package pdht is a query-adaptive partial distributed hash table, a
// reproduction of Klemm, Datta and Aberer: "A Query-Adaptive Partial
// Distributed Hash Table for Peer-to-Peer Systems" (EDBT 2004).
//
// A classical DHT indexes every key in the network whether anyone queries
// it or not, and pays routing-table maintenance for all of it; an
// unstructured network indexes nothing and pays a broadcast for every
// query. The paper's observation is that under realistic churn a key is
// only worth indexing if it is queried often enough to amortize its share
// of the maintenance cost, and its contribution is twofold:
//
//   - an analytical cost model that computes the indexing threshold fMin,
//     the worthwhile index size, and the total message cost of the
//     index-everything / broadcast-everything / partial strategies
//     (the Model* functions and Sweep below);
//
//   - a decentralized selection algorithm that realizes partial indexing
//     with no global knowledge: query the index first, broadcast on a
//     miss, insert the result with an expiration time keyTtl that is
//     refreshed by queries, so unqueried keys silently fall out
//     (StrategyPartialTTL in the simulator; internal/sim/simcore implements it
//     over the P-Grid-style trie DHT).
//
// The package exposes four layers:
//
//   - The live system: Open builds an embeddable handle on a real cluster
//     — a full member node, or with WithClientOnly a lightweight
//     non-serving client — with a context-first, typed-error API and
//     batched operations (QueryMany/PublishMany: one OpBatch round trip
//     per destination peer). Package pdht/client is the full surface;
//     Open and the With* options re-export it here.
//
//   - The analytical model: DefaultScenario, Solve, SolveTTL, Sweep,
//     TTLSensitivity reproduce every figure of the paper's evaluation.
//
//   - The simulator: Simulate runs a message-level simulation of a full
//     peer-to-peer system (unstructured overlay with flooding and random
//     walks, trie DHT, replica gossip, churn) under any of the
//     four strategies and reports measured message rates, hit rates and
//     index sizes next to the model's predictions.
//
//   - Metadata utilities: NewsQuery and QueryKey map the paper's
//     element=value metadata predicates to index keys.
//
// Beyond the reproduction, internal/node, internal/gossip, internal/replica
// and internal/transport serve the selection algorithm as a live system —
// peers exchanging Query/Insert/Refresh/Broadcast/Gossip RPCs over TCP,
// every index entry replicated at an r-member replica set (writes fan out,
// reads fail over from the primary through the backups in ring order
// before any broadcast, hits read-repair the holes churn punches), with
// SWIM-style membership detecting crashes, evicting dead peers and
// re-replicating moved index keys to the set's new members with their
// remaining TTLs — and cmd/pdht-node is the deployable; see its -demo mode
// for the whole story on a 3-node loopback cluster. internal/adapt closes the title's
// loop at runtime: each peer sketches its own query stream in O(1) per
// query and bounded memory, refits the model periodically, retunes keyTtl,
// and gates the indexing of keys whose measured rate falls below fMin
// (node.Config.Adaptive, the CLI's -adaptive, and StrategyPartialAdaptive
// in the simulator).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package pdht

import (
	"context"
	"time"

	"pdht/client"
	"pdht/internal/adapt"
	"pdht/internal/churn"
	"pdht/internal/metadata"
	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/workload"
	"pdht/internal/zipf"
)

// ---- the live system: the embeddable client API ----

// Client is one live handle on the partial DHT — a full member node or a
// lightweight non-serving cluster client, built by Open. See package
// pdht/client for the full surface (QueryMany, PublishMany, ParseAndQuery,
// Report, …).
type Client = client.Client

// ClientResult is one resolved query of the live API.
type ClientResult = client.Result

// ClientKV is one key→value pair of a batched publish.
type ClientKV = client.KV

// ClientOption configures Open.
type ClientOption = client.Option

// QueryTrace is one finished query's per-leg causality record (index
// probes, broadcast, insert gate, refreshes, read repairs, stale-view
// re-syncs), delivered to WithTraceHook hooks and kept by the slow-query
// log; TraceLeg is one step of it.
type QueryTrace = client.QueryTrace
type TraceLeg = client.TraceLeg

// FleetReport is the cluster-wide aggregation of every member's metrics
// registry — per-peer rows, pooled latency quantiles, the measured cluster
// msgs/query next to the cost model's prediction — built by
// Client.ClusterReport; FleetPeer is one member's row of it.
type FleetReport = client.FleetReport
type FleetPeer = client.FleetPeer

// TopKResult is one resolved distributed top-k query (Client.QueryTopK):
// the k best documents cluster-wide under the threshold-algorithm round
// protocol, plus its cost accounting — rounds, wire legs, peers
// probed/skipped/failed, and whether the threshold bound terminated the
// query before every peer was drained. TopKEntry is one scored document.
type TopKResult = client.TopKResult
type TopKEntry = client.TopKEntry

// The typed failures of the live request path — errors.Is-able, shared
// with package pdht/client.
var (
	ErrClosed    = client.ErrClosed
	ErrNoMembers = client.ErrNoMembers
	ErrStaleView = client.ErrStaleView
	ErrTimeout   = client.ErrTimeout
	ErrBadQuery  = client.ErrBadQuery
)

// Open builds a live handle on the partial DHT: by default a full member
// node over TCP (serving the Query/Insert/Refresh/Broadcast/Gossip RPCs
// and holding its share of the index), with WithClientOnly a non-serving
// client that speaks the wire protocol to an existing cluster. Every
// request on the handle is context-first and batched access is one wire
// round trip per destination peer.
//
//	member, err := pdht.Open(ctx, pdht.WithListen("127.0.0.1:7070"))
//	cl, err := pdht.Open(ctx, pdht.WithClientOnly(), pdht.WithSeeds("127.0.0.1:7070"))
//	results, err := cl.QueryMany(ctx, keys)
func Open(ctx context.Context, opts ...ClientOption) (*Client, error) {
	return client.Open(ctx, opts...)
}

// The functional options of Open, re-exported from pdht/client.
func WithTCP() ClientOption                          { return client.WithTCP() }
func WithListen(addr string) ClientOption            { return client.WithListen(addr) }
func WithSeeds(seeds ...string) ClientOption         { return client.WithSeeds(seeds...) }
func WithClientOnly() ClientOption                   { return client.WithClientOnly() }
func WithReplication(repl int) ClientOption          { return client.WithReplication(repl) }
func WithKeyTtl(rounds int) ClientOption             { return client.WithKeyTtl(rounds) }
func WithCapacity(entries int) ClientOption          { return client.WithCapacity(entries) }
func WithRoundDuration(d time.Duration) ClientOption { return client.WithRoundDuration(d) }
func WithCallTimeout(d time.Duration) ClientOption   { return client.WithCallTimeout(d) }
func WithGossipInterval(d time.Duration) ClientOption {
	return client.WithGossipInterval(d)
}
func WithMaintainEnv(p float64) ClientOption { return client.WithMaintainEnv(p) }
func WithAdaptive(retuneInterval time.Duration) ClientOption {
	return client.WithAdaptive(retuneInterval)
}
func WithTraceHook(hook func(QueryTrace)) ClientOption { return client.WithTraceHook(hook) }
func WithTraceSampling(rate float64) ClientOption      { return client.WithTraceSampling(rate) }
func WithSlowQueryLog(threshold time.Duration, capacity int) ClientOption {
	return client.WithSlowQueryLog(threshold, capacity)
}
func WithDataDir(dir string) ClientOption { return client.WithDataDir(dir) }

// Scenario holds the parameters of the analytical model, one field per
// symbol of the paper's Table 1.
type Scenario = model.Params

// DefaultScenario returns the paper's evaluation scenario (Table 1):
// 20,000 peers, 40,000 metadata keys, replication 50, Zipf α = 1.2,
// env = 1/14, dup = dup2 = 1.8.
func DefaultScenario() Scenario { return model.DefaultScenario() }

// FrequencyGrid returns the eight query frequencies on the x-axis of the
// paper's Figures 1–4 (one query per peer every 30 … 7200 seconds).
func FrequencyGrid() []float64 { return model.FrequencyGrid() }

// FormatFrequency renders a query frequency the way the paper labels its
// axes ("1/30", "1/7200").
func FormatFrequency(f float64) string { return model.FormatFrequency(f) }

// Solution is the resolved ideal-partial-indexing model: the indexing
// threshold FMin (eq. 2), the number of keys worth indexing MaxRank, the
// index hit probability PIndxd (eq. 5) and all cost components.
type Solution = model.Solution

// Solve resolves the model at the given scenario (Sections 2–3 of the
// paper; see model.Solve for the fixed-point discussion).
func Solve(s Scenario) (Solution, error) { return model.Solve(s, nil) }

// TTLSolution is the resolved selection-algorithm model: expected index
// size (eq. 15), hit probability (eq. 14) and total cost (eq. 17) at a
// given keyTtl.
type TTLSolution = model.TTLSolution

// SolveTTL evaluates the selection-algorithm model with an explicit keyTtl
// (in rounds; one round is one second).
func SolveTTL(s Scenario, keyTtl float64) (TTLSolution, error) {
	return model.SolveTTL(s, nil, keyTtl)
}

// SolveTTLAuto solves the ideal model, derives the paper's keyTtl = 1/fMin,
// and evaluates the selection algorithm with it.
func SolveTTLAuto(s Scenario) (Solution, TTLSolution, error) {
	return model.SolveTTLAuto(s, nil)
}

// IndexAllCost is eq. 11: total msg/s when every key is indexed.
func IndexAllCost(s Scenario) float64 { return model.IndexAllCost(s) }

// NoIndexCost is eq. 12: total msg/s when every query is broadcast.
func NoIndexCost(s Scenario) float64 { return model.NoIndexCost(s) }

// PartialCost is eq. 13: total msg/s of ideal partial indexing, evaluated
// on a solved model.
func PartialCost(sol Solution) float64 { return model.PartialCost(sol) }

// Savings returns 1 − cost/baseline, the y-axis of Figures 2 and 4.
func Savings(cost, baseline float64) float64 { return model.Savings(cost, baseline) }

// SweepPoint is one x-axis position of Figures 1–4.
type SweepPoint = model.SweepPoint

// Sweep evaluates the model across query frequencies (nil means the
// paper's grid), producing the series of Figures 1–4.
func Sweep(s Scenario, freqs []float64) ([]SweepPoint, error) {
	return model.Sweep(s, freqs)
}

// TTLSensitivityPoint is one row of the §5.1.1 keyTtl sensitivity analysis.
type TTLSensitivityPoint = model.TTLSensitivityPoint

// TTLSensitivity evaluates the selection algorithm with mis-estimated
// keyTtl values (errors are relative, e.g. ±0.5 for the paper's ±50%).
func TTLSensitivity(s Scenario, freqs, errors []float64) ([]TTLSensitivityPoint, error) {
	return model.TTLSensitivity(s, freqs, errors)
}

// IdealKeyTtl returns the paper's expiration-time choice 1/fMin.
func IdealKeyTtl(sol Solution) float64 { return model.IdealKeyTtl(sol) }

// Strategy selects how simulated queries are answered.
type Strategy = sim.Strategy

// The four strategies of the paper's evaluation, plus the adaptive variant:
// the selection algorithm with the live control plane (internal/adapt)
// driving keyTtl and the fMin insert gate from online frequency sketches.
const (
	StrategyNoIndex         = sim.StrategyNoIndex
	StrategyIndexAll        = sim.StrategyIndexAll
	StrategyPartialIdeal    = sim.StrategyPartialIdeal
	StrategyPartialTTL      = sim.StrategyPartialTTL
	StrategyPartialAdaptive = sim.StrategyPartialAdaptive
)

// SimConfig describes one message-level simulation run.
type SimConfig = sim.Config

// SimResult is the measured outcome of one run, with the analytical
// prediction alongside.
type SimResult = sim.Result

// TracePoint is one time-series sample of a traced simulation.
type TracePoint = sim.TracePoint

// DefaultSimConfig returns a laptop-scale version of the paper's scenario
// (Table 1 proportions at one-tenth population).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs one message-level simulation.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// ChurnModel is the exponential on/off session model peers follow.
type ChurnModel = churn.Model

// ShiftEvent schedules a change of the query distribution mid-run.
type ShiftEvent = workload.ShiftEvent

// ShiftSchedule is a round-ordered list of shift events.
type ShiftSchedule = workload.Schedule

// The two kinds of popularity shift.
const (
	// ShiftShuffle gives every key a brand-new random popularity rank.
	ShiftShuffle = workload.ShiftShuffle
	// ShiftRotateHead rotates the hottest HeadSize ranks by one.
	ShiftRotateHead = workload.ShiftRotateHead
)

// Predicate is a single element = value condition on article metadata.
type Predicate = metadata.Predicate

// NewsQuery is a conjunction of metadata predicates, as in the paper's
// news-system example (title = "Weather Iráklion" AND date = "2004/03/14").
type NewsQuery = metadata.Query

// Article is one news item with its metadata file.
type Article = metadata.Article

// QueryKey returns the 64-bit index key for a conjunction of metadata
// predicates: the hash of its canonical form. Predicate order does not
// matter.
func QueryKey(preds ...Predicate) uint64 {
	return uint64(metadata.Query{Predicates: preds}.Key())
}

// ParseQuery parses the paper's query syntax, a conjunction of
// element=value predicates joined by AND:
//
//	q, err := pdht.ParseQuery("title=Weather Iráklion AND date=2004/03/14")
//	key := uint64(q.Key())
func ParseQuery(s string) (NewsQuery, error) {
	return metadata.ParseQuery(s)
}

// GenerateArticles returns a deterministic synthetic news corpus, the
// stand-in for the paper's 2,000 articles.
func GenerateArticles(n int, seed uint64) []Article {
	return metadata.GenerateArticles(n, seed)
}

// EstimateAlpha fits a Zipf exponent to observed per-key query counts by
// maximum likelihood — the calibration loop that lets a deployment feed
// Solve with its measured workload skew instead of a literature constant.
// counts holds how often each key was queried; keys is the size of the key
// universe (≥ len(counts)).
func EstimateAlpha(counts []int, keys int) (float64, error) {
	return zipf.EstimateAlpha(counts, keys)
}

// Tuner is the query-adaptive control plane of internal/adapt: count-min and
// heavy-hitter sketches over the query stream (O(1) per query, bounded
// memory), a periodic refit of the paper's model to what they saw, and the
// two actuated knobs — keyTtl = 1/fMin for future inserts, and the per-key
// fMin gate deciding whether a broadcast-resolved key is indexed at all.
// internal/node runs one per peer under node.Config.Adaptive; the simulator
// A/Bs it as StrategyPartialAdaptive.
type Tuner = adapt.Tuner

// TunerConfig parameterizes a Tuner; zero fields take documented defaults.
type TunerConfig = adapt.Config

// TunerInputs carries the cluster facts a retune fits against.
type TunerInputs = adapt.Inputs

// TunerDecision is one retune outcome: the fitted scenario (α, fQry,
// distinct keys), fMin, and the recommended keyTtl and gate threshold.
type TunerDecision = adapt.Decision

// NewTuner returns a standalone control plane, for embedding the
// measure→model→actuate loop outside the bundled node subsystem:
//
//	t, _ := pdht.NewTuner(pdht.TunerConfig{})
//	t.Observe(key)                      // on every query
//	d, _ := t.Retune(pdht.TunerInputs{  // periodically
//	    Members: 50, Observers: 1, Capacity: 1024, Repl: 3,
//	    Env: 1.0 / 14, WindowRounds: 60,
//	})
//	_ = d.KeyTtl                        // attach to inserts
//	_ = t.ShouldIndex(key)              // gate below-fMin inserts
func NewTuner(cfg TunerConfig) (*Tuner, error) { return adapt.NewTuner(cfg) }
