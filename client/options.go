package client

import (
	"fmt"
	"time"

	"pdht/internal/node"
	"pdht/internal/transport"
)

// config collects what the options build: the member node's
// configuration, written by the options directly, and what chooses what
// Open builds. Open starts it from node.DefaultConfig: a member node on
// TCP, listening on a loopback port.
type config struct {
	tr         transport.Transport
	seeds      []string
	clientOnly bool
	dataDir    string

	node node.Config
}

// Option configures Open. Options are applied in order; later options win.
type Option func(*config)

// WithTCP selects the socket transport — the default, spelled out for
// explicitness in deployment code.
func WithTCP() Option {
	return func(c *config) { c.tr = transport.NewTCP() }
}

// withTransport injects an arbitrary transport — the test seam for the
// in-memory loopback network.
func withTransport(tr transport.Transport) Option {
	return func(c *config) { c.tr = tr }
}

// WithListen sets the member node's serving address ("127.0.0.1:0" by
// default: loopback, port picked by the OS). Ignored in client-only mode.
func WithListen(addr string) Option {
	return func(c *config) { c.node.Addr = addr }
}

// WithSeeds names existing cluster members to join through (member mode)
// or to bootstrap the membership view from (client-only mode). Seeds are
// tried in order until one answers. A member node with no seeds starts a
// new cluster.
func WithSeeds(seeds ...string) Option {
	return func(c *config) { c.seeds = append(c.seeds, seeds...) }
}

// WithClientOnly selects the lightweight non-serving mode: the handle
// speaks the wire protocol to an existing cluster (it requires seeds) but
// serves nothing, gossips nothing and never appears in any membership
// view. Queries route client-side over a membership view fetched from the
// seeds and kept fresh through stale-view responses.
func WithClientOnly() Option {
	return func(c *config) { c.clientOnly = true }
}

// WithReplication sets the replica-group size (the paper's repl, default
// 3). Every node and client of a cluster must agree on it.
func WithReplication(repl int) Option {
	return func(c *config) { c.node.Repl = repl }
}

// WithKeyTtl sets the expiration time, in rounds, attached to inserted and
// refreshed keys — the paper's keyTtl knob (default 120).
func WithKeyTtl(rounds int) Option {
	return func(c *config) { c.node.KeyTtl = rounds }
}

// WithCapacity sets the member node's index cache size (the paper's stor,
// default 1024). Ignored in client-only mode.
func WithCapacity(entries int) Option {
	return func(c *config) { c.node.Capacity = entries }
}

// WithRoundDuration maps the paper's one-second round onto wall time
// (default 1s). All nodes of a cluster must agree on it; TTLs cross the
// wire in rounds.
func WithRoundDuration(d time.Duration) Option {
	return func(c *config) { c.node.RoundDuration = d }
}

// WithCallTimeout bounds each outbound RPC (default 2s).
func WithCallTimeout(d time.Duration) Option {
	return func(c *config) { c.node.CallTimeout = d }
}

// WithGossipInterval sets the SWIM membership protocol period of a member
// node (default: one round). Ignored in client-only mode.
func WithGossipInterval(d time.Duration) Option {
	return func(c *config) { c.node.GossipInterval = d }
}

// WithMaintainEnv sets the per-routing-entry per-round probe probability
// of the local overlay instance (the paper's env). Ignored in client-only
// mode.
func WithMaintainEnv(p float64) Option {
	return func(c *config) { c.node.MaintainEnv = p }
}

// WithAdaptive turns the query-adaptive control plane on for a member
// node: it sketches its own query stream, refits the paper's model every
// retuneInterval (0 means 60 rounds), retunes keyTtl online, and refuses
// to index keys whose measured rate falls below the fitted fMin. Ignored
// in client-only mode (a non-serving client indexes nothing of its own).
func WithAdaptive(retuneInterval time.Duration) Option {
	return func(c *config) {
		c.node.Adaptive = true
		c.node.RetuneInterval = retuneInterval
	}
}

// WithTraceHook registers hook to receive every finished Query's trace —
// the per-leg causality record of index probes (primary → ranked backups),
// the broadcast fan-out, the insert-gate verdict, refreshes, read repairs
// and stale-view re-syncs, each with its offset and duration. The hook is
// called synchronously at the end of Query in both member and client-only
// mode; keep it cheap. QueryTrace.Timeline renders the record for humans.
func WithTraceHook(hook func(QueryTrace)) Option {
	return func(c *config) { c.node.TraceHook = hook }
}

// WithTraceSampling sets the fraction of traced queries whose trace also
// propagates over the wire (default 1.0): sampled queries carry a trace ID
// on every RPC leg, and the servers they touch return server-side spans —
// index lookups, inserts, refreshes, content lookups, store appends — that
// are stitched into the QueryTrace as legs with Peer set, turning a trace
// into a cluster-wide causality tree. Zero disables wire propagation while
// keeping client-side traces. Sampling only applies to queries that are
// traced at all (WithTraceHook, WithSlowQueryLog, or a caller-supplied
// trace); without those the query hot path allocates nothing regardless.
func WithTraceSampling(rate float64) Option {
	return func(c *config) { c.node.TraceSampling = rate }
}

// WithSlowQueryLog keeps the traces of the most recent queries that took
// threshold or longer in a ring of the last 64, served on the member
// node's debug endpoint under /traces and readable through SlowQueries.
// Ignored in client-only mode.
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(c *config) { c.node.SlowQueryThreshold = threshold }
}

// WithDataDir makes the member node durable: every index and content
// mutation is journaled to a write-ahead log under dir (created if
// missing), periodically compacted into a snapshot, and a handle reopened
// on the same directory rejoins warm — index entries re-admitted at their
// remaining TTL, published content served again without republishing.
// Incompatible with client-only mode (a non-serving client holds nothing
// to persist).
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// build validates the option set and splits it into the two hosts'
// configurations.
func (c *config) build() (node.Config, node.RemoteConfig, error) {
	if c.tr == nil {
		c.tr = transport.NewTCP()
	}
	if c.clientOnly && len(c.seeds) == 0 {
		return node.Config{}, node.RemoteConfig{}, fmt.Errorf("client: client-only mode needs WithSeeds")
	}
	if c.clientOnly && c.dataDir != "" {
		return node.Config{}, node.RemoteConfig{}, fmt.Errorf("client: client-only mode cannot persist (no index or content of its own)")
	}
	remoteCfg := node.RemoteConfig{
		Seeds:         c.seeds,
		Repl:          c.node.Repl,
		KeyTtl:        c.node.KeyTtl,
		CallTimeout:   c.node.CallTimeout,
		TraceHook:     c.node.TraceHook,
		TraceSampling: c.node.TraceSampling,
	}
	nodeCfg := c.node
	nodeCfg.Seeds = c.seeds
	return nodeCfg, remoteCfg, nil
}
