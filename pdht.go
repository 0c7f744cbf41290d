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
//     (Solve, SolveTTL and the *Cost functions below);
//
//   - a decentralized selection algorithm that realizes partial indexing
//     with no global knowledge: query the index first, broadcast on a
//     miss, insert the result with an expiration time keyTtl that is
//     refreshed by queries, so unqueried keys silently fall out.
//
// The package exposes three parts:
//
//   - The live system: Open builds an embeddable handle on a real cluster
//     — a full member node, or with WithClientOnly a lightweight
//     non-serving client — with a context-first, typed-error API and
//     batched operations (QueryMany/PublishMany: one OpBatch round trip
//     per destination peer). Package pdht/client is the full surface;
//     Open and the With* options the examples use re-export it here.
//     ClientOption is an alias of client.Option, so every other option
//     passes to Open as it is: pdht.Open(ctx, client.WithCapacity(n)).
//
//   - The analytical model: DefaultScenario, Solve, SolveTTL and
//     SolveTTLAuto resolve the paper's scenario; cmd/pdht-model prints
//     every figure of its evaluation.
//
//   - Metadata keys: ParseQuery, NewsQuery and QueryKey map the paper's
//     element=value metadata predicates to index keys.
//
// Behind Open, internal/node (whose query engine holds the replica-set
// reads and writes), internal/gossip and internal/transport serve the
// selection algorithm as a live system —
// peers exchanging Query/Insert/Refresh/Broadcast/Gossip RPCs over TCP,
// every index entry replicated at an r-member replica set (writes fan out,
// reads fail over from the primary through the backups in ring order
// before any broadcast, hits read-repair the holes churn punches), with
// SWIM-style membership detecting crashes, evicting dead peers and
// re-replicating moved index keys to the set's new members with their
// remaining TTLs — and cmd/pdht-node is the deployable. internal/adapt
// closes the title's loop at runtime: each peer sketches its own query
// stream in O(1) per query and bounded memory, refits the model
// periodically, retunes keyTtl, and gates the indexing of keys whose
// measured rate falls below fMin (client.WithAdaptive, the CLI's
// -adaptive). The message-level simulator that A/Bs the strategies is
// cmd/pdht-sim; this package links none of it.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package pdht

import (
	"context"
	"time"

	"pdht/client"
	"pdht/internal/metadata"
	"pdht/internal/model"
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
func WithTCP() ClientOption                            { return client.WithTCP() }
func WithListen(addr string) ClientOption              { return client.WithListen(addr) }
func WithSeeds(seeds ...string) ClientOption           { return client.WithSeeds(seeds...) }
func WithClientOnly() ClientOption                     { return client.WithClientOnly() }
func WithReplication(repl int) ClientOption            { return client.WithReplication(repl) }
func WithKeyTtl(rounds int) ClientOption               { return client.WithKeyTtl(rounds) }
func WithRoundDuration(d time.Duration) ClientOption   { return client.WithRoundDuration(d) }
func WithTraceHook(hook func(QueryTrace)) ClientOption { return client.WithTraceHook(hook) }
func WithTraceSampling(rate float64) ClientOption      { return client.WithTraceSampling(rate) }
func WithSlowQueryLog(threshold time.Duration) ClientOption {
	return client.WithSlowQueryLog(threshold)
}
func WithDataDir(dir string) ClientOption { return client.WithDataDir(dir) }

// Scenario holds the parameters of the analytical model, one field per
// symbol of the paper's Table 1.
type Scenario = model.Params

// DefaultScenario returns the paper's evaluation scenario (Table 1):
// 20,000 peers, 40,000 metadata keys, replication 50, Zipf α = 1.2,
// env = 1/14, dup = dup2 = 1.8.
func DefaultScenario() Scenario { return model.DefaultScenario() }

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

// IdealKeyTtl returns the paper's expiration-time choice 1/fMin.
func IdealKeyTtl(sol Solution) float64 { return model.IdealKeyTtl(sol) }

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
