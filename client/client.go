// Package client is the application-facing API of the live partial DHT:
// context-first, batched, typed-error access to a cluster of pdht nodes.
//
// Open builds one of two handles over the same Client surface:
//
//   - Member mode (default): a full peer — it serves the
//     Query/Insert/Refresh/Broadcast/Gossip RPCs, participates in SWIM
//     membership, holds its share of the index, and can host content for
//     the unstructured broadcast. This is the embed-a-node story.
//
//   - Client-only mode (WithClientOnly): a lightweight handle that speaks
//     the wire protocol to an existing cluster without joining it — no
//     serving socket, no gossip participation, no index share. It fetches
//     the membership view from a seed, routes client-side, and re-syncs
//     from stale-view responses. This is the access-a-cluster story.
//
// Every request takes a context: cancellation and deadlines abort
// in-flight legs (index probes, broadcast fan-out, insert writes) and
// surface as context.Canceled or ErrTimeout. Failures are typed —
// ErrClosed, ErrNoMembers, ErrStaleView, ErrTimeout — and errors.Is-able.
//
// QueryMany and PublishMany are first-class batched operations: keys are
// grouped by destination peer and each group crosses the wire as a single
// OpBatch round trip with per-key results (a group too large for one frame
// as several, all in the same round), amortizing the per-request cost
// exactly where a heavy query stream needs it.
//
// Availability under churn comes from the replica sets of the node layer
// underneath (internal/node, WithReplication): every index entry lives at
// an r-member replica set, writes fan out to all of it, reads fail over
// from the primary through the backups before any broadcast, hits
// read-repair members that lost their copy, and a membership change pushes
// moved entries to their new set — so a dead primary costs one extra RPC,
// not a broadcast, until membership convergence repairs the set.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"pdht/internal/metadata"
	"pdht/internal/node"
	"pdht/internal/obs"
	"pdht/internal/store"
	"pdht/internal/topk"
)

// The typed failures of the request path, re-exported from the node
// package so errors.Is works across both packages.
var (
	// ErrClosed reports a request issued after Close.
	ErrClosed = node.ErrClosed
	// ErrNoMembers reports that no cluster member is known or reachable.
	ErrNoMembers = node.ErrNoMembers
	// ErrStaleView reports a membership view that disagreed with every
	// peer asked and could not be refreshed.
	ErrStaleView = node.ErrStaleView
	// ErrTimeout reports a deadline expiry mid-request; it wraps
	// context.DeadlineExceeded.
	ErrTimeout = node.ErrTimeout
)

// ErrBadQuery reports query text ParseAndQuery could not parse — a
// malformed topk: prefix, an unparsable k, or a broken predicate. It is
// typed so callers can distinguish "your input is wrong" from cluster
// failures.
var ErrBadQuery = errors.New("client: bad query")

// KV is one key→value pair of a batched publish.
type KV = node.KV

// QueryTrace is one finished query's per-leg causality record, delivered to
// a WithTraceHook hook and retained by the slow-query log: the key, the
// wall-clock span, the end-to-end outcome, and every leg — index probes
// primary → backups in ring order, the broadcast fan-out, the insert-gate verdict,
// refreshes, read repairs and stale-view re-syncs — with its offset,
// duration and outcome. Timeline() renders it for humans.
type QueryTrace = obs.QueryTrace

// TraceLeg is one step of a QueryTrace.
type TraceLeg = obs.Leg

// FleetReport is the cluster-wide aggregation ClusterReport assembles from
// per-peer metrics snapshots: one row per reachable peer, cluster hit rate,
// pooled latency quantiles, the measured cluster msgs/query next to the
// cost model's prediction, and the spread of the per-peer adaptive tuners.
type FleetReport = obs.FleetReport

// FleetPeer is one peer's row of a FleetReport.
type FleetPeer = obs.FleetPeer

// TopKResult is one resolved distributed top-k query: the k best
// documents cluster-wide plus the protocol's cost accounting (rounds,
// wire legs, peers probed/skipped/failed, early termination).
type TopKResult = topk.Result

// TopKEntry is one scored document of a TopKResult.
type TopKEntry = topk.Entry

// Result reports one resolved query.
type Result struct {
	// Key echoes the queried key — batched results stay self-describing
	// even when the caller reorders or filters them.
	Key uint64
	// Answered reports whether the query resolved at all; FromIndex
	// whether the partial index answered it (vs the broadcast fallback).
	Answered  bool
	FromIndex bool
	// InsertGated reports that the broadcast resolved the key but the
	// adaptive control plane refused to index it (member mode only).
	InsertGated bool
	// Value is the resolved value when Answered.
	Value uint64
	// Responsible is the peer routing selected for the key; AnsweredBy
	// the peer that actually supplied the value.
	Responsible string
	AnsweredBy  string
	// Messages is the total message cost the request paid on the wire —
	// the live analogue of the paper's cost accounting.
	Messages int
}

// handle is what both modes give the façade: the one query engine of
// internal/node, hosted by a member (*node.Node) or by a non-serving
// cluster client (*node.RemoteClient).
type handle interface {
	Close() error
	Members() []string
	Query(ctx context.Context, key uint64) (node.QueryResult, error)
	QueryMany(ctx context.Context, keys []uint64) ([]node.QueryResult, error)
	QueryTopK(ctx context.Context, terms []uint64, k int) (topk.Result, error)
	Publish(ctx context.Context, key, value uint64) error
	PublishMany(ctx context.Context, pairs []KV) error
	ClusterReport(ctx context.Context) (obs.FleetReport, error)
}

// Client is one handle on the partial DHT — a full member node or a
// non-serving cluster client, depending on the Open options. Safe for
// concurrent use.
type Client struct {
	h handle
}

// member returns the serving node behind the handle, nil in client-only
// mode — what the member-only surfaces (address, report, debug plane, slow
// log) ask for.
func (c *Client) member() *node.Node {
	nd, _ := c.h.(*node.Node)
	return nd
}

// Open builds a handle on the partial DHT. With default options it starts
// a member node on TCP loopback seeding a fresh cluster; WithSeeds joins
// an existing one; WithClientOnly connects without joining. The context
// bounds the bootstrap (bind, join, membership fetch).
//
// The returned handle must be Closed; in member mode that departs the
// cluster ungracefully (the membership layer detects and evicts it, the
// index handoff re-homes its entries).
func Open(ctx context.Context, opts ...Option) (*Client, error) {
	cfg := config{node: node.DefaultConfig()}
	for _, opt := range opts {
		opt(&cfg)
	}
	nodeCfg, remoteCfg, err := cfg.build()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if cfg.clientOnly {
		rc, err := node.DialRemote(ctx, cfg.tr, remoteCfg)
		if err != nil {
			return nil, err
		}
		return &Client{h: rc}, nil
	}
	// Member mode. Durability first: WithDataDir opens the file-backed
	// store here — recovery (replay, torn-tail truncation, remaining-TTL
	// accounting) runs once, and the node built below re-admits the
	// recovered entries before it joins the cluster.
	var st store.Store
	if cfg.dataDir != "" {
		fs, err := store.OpenFile(store.FileOptions{Dir: cfg.dataDir})
		if err != nil {
			return nil, fmt.Errorf("client: open data dir: %w", err)
		}
		st = fs
	}
	nodeCfg.Store = st
	// The node tries the seeds in order — the first that joins wins; a
	// node with no seeds starts its own cluster. A failed New leaves store
	// ownership here.
	nd, err := node.New(cfg.tr, nodeCfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		if cerr := ctx.Err(); cerr != nil {
			err = ctxErr(cerr)
		}
		return nil, fmt.Errorf("client: open: %w", err)
	}
	return &Client{h: nd}, nil
}

// ctxErr translates a context failure into the typed taxonomy, exactly as
// the engine does: deadline expiry becomes ErrTimeout, cancellation stays
// context.Canceled.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// Close releases the handle: a member node departs and shuts down, a
// client-only handle drops its connections. Idempotent.
func (c *Client) Close() error { return c.h.Close() }

// Serving reports whether this handle is a full member node (true) or a
// non-serving client (false).
func (c *Client) Serving() bool { return c.member() != nil }

// Addr returns the member node's serving address, empty in client-only
// mode.
func (c *Client) Addr() string {
	if nd := c.member(); nd != nil {
		return nd.Addr()
	}
	return ""
}

// Members returns the handle's current view of the cluster membership.
func (c *Client) Members() []string { return c.h.Members() }

// Report renders the member node's self-measurement status block, with
// ok=false in client-only mode (a non-serving client measures nothing).
func (c *Client) Report() (string, bool) {
	nd := c.member()
	if nd == nil {
		return "", false
	}
	return nd.Report().String(), true
}

// DebugHandler returns the member node's debug HTTP plane — /metrics
// (Prometheus text exposition of every layer's instruments), /report (the
// self-measurement as JSON), /traces (the slow-query ring), /healthz and
// /debug/pprof — ready to mount on any mux or serve on its own port, as
// cmd/pdht-node's -http flag does. ok=false in client-only mode.
func (c *Client) DebugHandler() (http.Handler, bool) {
	nd := c.member()
	if nd == nil {
		return nil, false
	}
	return nd.DebugHandler(), true
}

// ClusterReport polls every cluster member for a metrics snapshot (the
// OpStats RPC) and aggregates them into a fleet-wide report: per-peer rows
// sorted by address, cluster hit rate and pooled p50/p90/p99, the measured
// cluster msgs/query — and, in member mode with enough observed traffic,
// the paper's cost model prediction for that number alongside. Members that
// fail to answer within ctx (or the call timeout) are skipped; the report
// covers the reachable fleet and fails only when nobody answered.
func (c *Client) ClusterReport(ctx context.Context) (FleetReport, error) {
	return c.h.ClusterReport(ctx)
}

// SlowQueries returns the member node's retained slow-query traces, newest
// first — empty unless WithSlowQueryLog enabled the ring, and always empty
// in client-only mode.
func (c *Client) SlowQueries() []QueryTrace {
	nd := c.member()
	if nd == nil {
		return nil
	}
	return nd.SlowQueries()
}

// Query resolves one key with the paper's selection algorithm: index
// search at the responsible replica group, broadcast on a miss, insert of
// the resolved value with keyTtl, TTL refresh on a hit. An unresolvable
// key is not an error — Answered stays false; errors are the typed
// lifecycle and context failures.
func (c *Client) Query(ctx context.Context, key uint64) (Result, error) {
	res, err := c.h.Query(ctx, key)
	return toResult(key, res), err
}

// QueryMany resolves a batch of keys with one OpBatch request per
// destination peer: every member of every key's replica set is asked in a
// single round — the primary for the value, the backups for the
// reset-on-hit refresh — with per-key results (aligned with keys). Keys the
// batch cannot resolve fall back to the full per-key selection algorithm
// concurrently.
// On a context failure the results gathered so far are returned with the
// typed error.
func (c *Client) QueryMany(ctx context.Context, keys []uint64) ([]Result, error) {
	rs, err := c.h.QueryMany(ctx, keys)
	out := make([]Result, len(rs))
	for i := range rs {
		out[i] = toResult(keys[i], rs[i])
	}
	return out, err
}

// Publish makes key→value resolvable through the cluster. A member node
// installs the pair in its local content store (the durable home the
// broadcast searches); a client-only handle, which answers no broadcasts,
// installs it at the key's index replica group with keyTtl — it expires
// unless queries keep it alive or the client republishes.
func (c *Client) Publish(ctx context.Context, key, value uint64) error {
	return c.h.Publish(ctx, key, value)
}

// PublishMany publishes a batch of pairs; in client-only mode the inserts
// are grouped by destination peer, one OpBatch round trip each.
func (c *Client) PublishMany(ctx context.Context, pairs []KV) error {
	return c.h.PublishMany(ctx, pairs)
}

// QueryTopK runs one distributed top-k query: the k best documents
// cluster-wide for the term set, under the threshold-algorithm round
// protocol (internal/topk). Terms are index keys — typically single
// metadata predicates hashed via the paper's canonical form, as
// ParseAndQuery's topk: syntax produces. A member node coordinates with
// sketch-fed term weights and a probe schedule learned from past yield; a
// client-only handle coordinates the same protocol with uniform weights.
func (c *Client) QueryTopK(ctx context.Context, terms []uint64, k int) (TopKResult, error) {
	return c.h.QueryTopK(ctx, terms, k)
}

// ParseAndQuery parses the paper's query syntax — element=value predicates
// joined by AND, e.g. "title=Weather Iráklion AND date=2004/03/14" — maps
// the conjunction to its index key, and resolves it like Query.
//
// A "topk:<k> " prefix switches to the distributed top-k form: the rest of
// the string is predicates joined by AND, each hashed to its own term key,
// and the whole resolved via QueryTopK. The returned Result carries the
// best document (Value) under the first term's key; callers that want the
// full ranked list parse with ParseTopK and call QueryTopK directly. Text
// neither parser accepts fails with ErrBadQuery, and a malformed topk:
// query never falls back to the conjunctive parser.
func (c *Client) ParseAndQuery(ctx context.Context, query string) (Result, error) {
	if hasTopKPrefix(query) {
		k, terms, err := ParseTopK(query)
		if err != nil {
			return Result{}, err
		}
		res, err := c.QueryTopK(ctx, terms, k)
		if err != nil {
			return Result{}, err
		}
		out := Result{Key: terms[0], Messages: res.Legs}
		if len(res.Entries) > 0 {
			out.Answered = true
			out.Value = res.Entries[0].Doc
		}
		return out, nil
	}
	key, err := parseKey(query)
	if err != nil {
		return Result{}, err
	}
	return c.Query(ctx, key)
}

// parseKey maps a conjunctive query to its index key. Like ParseTopK's,
// its failures are ErrBadQuery.
func parseKey(query string) (uint64, error) {
	q, err := metadata.ParseQuery(query)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return uint64(q.Key()), nil
}

// hasTopKPrefix reports whether the query text opts into the top-k form.
func hasTopKPrefix(s string) bool {
	return strings.HasPrefix(strings.TrimSpace(s), "topk:")
}

// ParseTopK parses the mini-language's top-k form:
//
//	topk:<k> <pred> AND <pred> AND ...
//
// where each predicate is element=value and maps to its own term key (the
// hash of its canonical single-predicate form). Failures — unparsable or
// non-positive k, no predicates, a broken predicate — are ErrBadQuery.
func ParseTopK(query string) (k int, terms []uint64, err error) {
	s := strings.TrimSpace(query)
	if !strings.HasPrefix(s, "topk:") {
		return 0, nil, fmt.Errorf("%w: %q has no topk: prefix", ErrBadQuery, query)
	}
	s = s[len("topk:"):]
	num, rest, found := strings.Cut(s, " ")
	if !found {
		return 0, nil, fmt.Errorf("%w: topk:<k> needs predicates after the count", ErrBadQuery)
	}
	k, convErr := strconv.Atoi(num)
	if convErr != nil || k < 1 {
		return 0, nil, fmt.Errorf("%w: top-k count %q must be a positive integer", ErrBadQuery, num)
	}
	q, parseErr := metadata.ParseQuery(rest)
	if parseErr != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadQuery, parseErr)
	}
	terms = make([]uint64, len(q.Predicates))
	for i, p := range q.Predicates {
		terms[i] = uint64(metadata.Query{Predicates: []metadata.Predicate{p}}.Key())
	}
	return k, terms, nil
}

// toResult maps the engine's result onto the public one.
func toResult(key uint64, r node.QueryResult) Result {
	return Result{
		Key:         key,
		Answered:    r.Answered,
		FromIndex:   r.FromIndex,
		InsertGated: r.InsertGated,
		Value:       r.Value,
		Responsible: r.Responsible,
		AnsweredBy:  r.AnsweredBy,
		Messages:    r.Total(),
	}
}
