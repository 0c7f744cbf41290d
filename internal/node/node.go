package node

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pdht/internal/adapt"
	"pdht/internal/core"
	"pdht/internal/gossip"
	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/stats"
	"pdht/internal/store"
	"pdht/internal/topk"
	"pdht/internal/transport"
)

// slowQueryCapacity is the ring size of the slow-query log.
const slowQueryCapacity = 64

// Config parameterizes one live node.
type Config struct {
	// Addr is the address to serve on; empty lets the transport pick.
	Addr string
	// Seed is an existing cluster member to join, empty for the first
	// node of a cluster.
	Seed string
	// Repl is the replica-group size (the paper's repl), clamped to the
	// cluster size. Default 3.
	Repl int
	// KeyTtl is the expiration time, in rounds, attached to inserted and
	// refreshed keys — the paper's keyTtl knob. Default 120.
	KeyTtl int
	// Capacity is this node's index cache size (the paper's stor).
	// Default 1024.
	Capacity int
	// RoundDuration maps the paper's one-second round onto wall time.
	// All nodes of a cluster must agree on it. Default 1s.
	RoundDuration time.Duration
	// CallTimeout bounds each outbound RPC. Default 2s.
	CallTimeout time.Duration
	// MaintainEnv is the per-entry per-round probe probability of the
	// local overlay instance (the paper's env). Zero disables probing.
	MaintainEnv float64
	// GossipInterval is the SWIM protocol period of the membership layer
	// (internal/gossip). Zero maps it onto one round — membership beats
	// at the paper's clock unless tuned separately.
	GossipInterval time.Duration
	// SuspicionTimeout is how long an unresponsive peer may stay suspect
	// before it is confirmed dead and evicted from the view. Zero means
	// 4× GossipInterval.
	SuspicionTimeout time.Duration
	// SyncInterval is the anti-entropy period: how often full membership
	// tables are exchanged with one random peer. Zero means 4×
	// GossipInterval.
	SyncInterval time.Duration
	// DeadSyncFraction is the fraction of anti-entropy rounds aimed at a
	// retained dead member instead of a live peer — the only channel
	// through which the two sides of a healed partition, each holding the
	// other confirmed dead, rediscover each other. Zero takes the gossip
	// default (0.125); negative disables. Large clusters on slow sync
	// clocks shorten heal-to-convergence by raising it.
	DeadSyncFraction float64
	// Adaptive turns the query-adaptive control plane on: the node
	// sketches its own query stream (internal/adapt), periodically refits
	// the paper's model to it, attaches the tuned keyTtl to inserts and
	// refreshes instead of the static KeyTtl, and refuses to index keys
	// whose estimated query rate falls below the fitted fMin.
	Adaptive bool
	// RetuneInterval is how often the adaptive control loop refits —
	// also the width of its observation windows. Zero means 60 rounds.
	RetuneInterval time.Duration
	// Tuner parameterizes the control plane (zero fields take
	// adapt.DefaultConfig); ignored unless Adaptive is set.
	Tuner adapt.Config
	// TraceHook, when set, receives every finished query's trace — the
	// per-leg record of probes, broadcasts, gate verdicts, refreshes and
	// repairs. Called synchronously at the end of Query; keep it cheap.
	TraceHook func(obs.QueryTrace)
	// SlowQueryThreshold enables the slow-query log: finished queries at or
	// above it are retained in a ring of the last slowQueryCapacity (newest
	// first, served on /traces). Zero disables the log.
	SlowQueryThreshold time.Duration
	// TraceSampling is the fraction of traced queries whose trace also
	// propagates over the wire: sampled queries carry a TraceID on every
	// RPC leg, and instrumented servers return server-side spans that are
	// stitched into the QueryTrace (legs with Peer set). It only applies
	// to queries that are traced at all (TraceHook, slow-query log, or a
	// caller-supplied trace) — with none of those, the hot path allocates
	// nothing regardless of this knob. DefaultConfig sets 1.0; zero
	// disables wire propagation while keeping client-side traces.
	TraceSampling float64
	// Store is the persistence plane (internal/store): every index and
	// content mutation is journaled through it, and New replays its
	// recovered state — index entries re-admitted at their remaining TTL,
	// content entries verbatim — before the node joins gossip, so a
	// restarted peer rejoins warm and the existing handoff machinery
	// announces the recovered keys to their replica sets. Nil (the
	// default) means no persistence and costs the mutation paths nothing.
	// Ownership transfers on success: a Node New returns closes the store
	// in its Close; on a failed New the caller keeps ownership (and a
	// FileStore stays reopenable — recovery mutates nothing).
	Store store.Store
}

// DefaultConfig returns the configuration a live deployment starts from.
func DefaultConfig() Config {
	return Config{
		Repl:          3,
		KeyTtl:        120,
		Capacity:      1024,
		RoundDuration: time.Second,
		CallTimeout:   2 * time.Second,
		TraceSampling: 1,
	}
}

// setDefaults fills zero fields — from DefaultConfig where it names a
// value, except TraceSampling, whose zero means "keep traces local".
func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.Repl == 0 {
		c.Repl = d.Repl
	}
	if c.KeyTtl == 0 {
		c.KeyTtl = d.KeyTtl
	}
	if c.Capacity == 0 {
		c.Capacity = d.Capacity
	}
	if c.RoundDuration == 0 {
		c.RoundDuration = d.RoundDuration
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = d.CallTimeout
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = c.RoundDuration
	}
	if c.SuspicionTimeout == 0 {
		c.SuspicionTimeout = 4 * c.GossipInterval
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 4 * c.GossipInterval
	}
	if c.RetuneInterval == 0 {
		c.RetuneInterval = 60 * c.RoundDuration
	}
}

// validateShared range-checks the fields Config and RemoteConfig share.
func validateShared(repl, keyTtl int, callTimeout time.Duration, traceSampling float64) error {
	switch {
	case repl < 1:
		return fmt.Errorf("node: Repl %d must be positive", repl)
	case keyTtl < 1 || keyTtl > maxWireTTL:
		return fmt.Errorf("node: KeyTtl %d must be in [1, %d]", keyTtl, maxWireTTL)
	case callTimeout < 0:
		return fmt.Errorf("node: negative CallTimeout")
	case !isProbability(traceSampling):
		return fmt.Errorf("node: TraceSampling %v must be a probability", traceSampling)
	}
	return nil
}

// isProbability reports whether p is in [0, 1]. NaN is not.
func isProbability(p float64) bool { return p >= 0 && p <= 1 }

func (c Config) validate() error {
	if err := validateShared(c.Repl, c.KeyTtl, c.CallTimeout, c.TraceSampling); err != nil {
		return err
	}
	switch {
	case c.Capacity < 1:
		return fmt.Errorf("node: Capacity %d must be positive", c.Capacity)
	case c.RoundDuration < 0:
		return fmt.Errorf("node: negative RoundDuration")
	case !isProbability(c.MaintainEnv):
		return fmt.Errorf("node: MaintainEnv %v must be a probability", c.MaintainEnv)
	case c.GossipInterval < 0 || c.SuspicionTimeout < 0 || c.SyncInterval < 0:
		return fmt.Errorf("node: negative gossip interval")
	case c.RetuneInterval < 0:
		return fmt.Errorf("node: negative RetuneInterval")
	case c.SlowQueryThreshold < 0:
		return fmt.Errorf("node: negative SlowQueryThreshold")
	}
	return nil
}

// Node is one live peer of the partial DHT: the query engine (Query,
// QueryMany, QueryTopK and ClusterReport are its methods, see engine.go)
// plus the state a cluster member serves from — index cache, content store,
// gossip membership and the durability plane.
//
// The fields outside the mu group are set before New returns and never
// written again, or synchronize themselves; the view and the closed flag
// are the engine's atomics (engine.go states their rules).
type Node struct {
	engine

	cfg    Config
	tr     transport.Transport
	srv    transport.Server
	epoch  time.Time
	gossip *gossip.Service // assigned before the first view is stored

	// mu guards the index cache, the content store and queryCounts, and
	// orders the journal appends made under them; the view swap and the
	// closed store take it only to order against those (engine.go). RPCs
	// are never issued while holding it.
	mu          sync.Mutex
	cache       *core.Cache
	store       map[keyspace.Key]uint64
	queryCounts map[keyspace.Key]uint64

	// persist is the durability plane (Config.Store), nil when the node
	// runs in-memory. Index and content records are appended under mu;
	// runHandoff's OpHandoff audit records are appended outside it, on the
	// pusher goroutine, and the store's own lock serializes the two.
	// closeErr is written inside closeOnce and read after it.
	persist  store.Store
	closeErr error

	// reg is the registry /metrics renders; the engine's instruments
	// (engine.m, which Report reads) are registered on it.
	reg *obs.Registry

	stop      chan struct{}
	done      sync.WaitGroup
	handoffs  sync.WaitGroup // in-flight handoff pushers
	closeOnce sync.Once
}

// New starts a node: it serves its RPC endpoint, bootstraps membership
// from the seed peer if one is configured (one gossip full-state sync;
// convergence follows over the protocol), and starts the membership loop
// and the background expiry sweeper.
func New(tr transport.Transport, cfg Config) (*Node, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cache, err := core.NewCache(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	// Every RPC this node issues or serves crosses the instrumented
	// transport, so the wire metrics land on the same registry.
	tr = transport.Instrument(tr, transport.NewMetrics(reg))
	n := &Node{
		engine: engine{
			repl:          cfg.Repl,
			staticTtl:     cfg.KeyTtl,
			callTimeout:   cfg.CallTimeout,
			traceSampling: cfg.TraceSampling,
			traceHook:     cfg.TraceHook,
			pool:          newPool(tr),
			m:             newNodeMetrics(reg),
		},
		cfg:         cfg,
		tr:          tr,
		epoch:       time.Now(),
		cache:       cache,
		store:       make(map[keyspace.Key]uint64),
		queryCounts: make(map[keyspace.Key]uint64),
		reg:         reg,
		stop:        make(chan struct{}),
	}
	n.local, n.stale = n.serve, n.staleView
	if cfg.SlowQueryThreshold > 0 {
		n.slowLog = obs.NewSlowLog(slowQueryCapacity, cfg.SlowQueryThreshold)
	}
	n.registerGauges(reg)
	var termCount func(uint64) uint64 // nil: the planner weights terms uniformly
	if cfg.Adaptive {
		t, err := adapt.NewTuner(cfg.Tuner)
		if err != nil {
			return nil, err
		}
		n.tuner = t
		t.RegisterMetrics(reg)
		termCount = t.Count
	}
	n.planner = topk.NewPlanner(termCount)
	if cfg.Store != nil {
		n.persist = cfg.Store
		n.persist.RegisterMetrics(reg)
		// Replay before the endpoint serves and before gossip joins: the
		// node's very first membership view already covers the recovered
		// entries, so the existing handoff machinery announces them to
		// their replica sets on the first view change. The hook is
		// installed only after replay — recovery must not re-journal what
		// it just read.
		n.recoverPersisted()
		cache.SetHook(n.persistHook)
	}
	srv, err := tr.Serve(cfg.Addr, n.handle)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.cfg.Addr = srv.Addr() // the transport may have picked the address
	n.self = n.cfg.Addr
	g, err := gossip.New(gossip.Config{
		Addr:             n.cfg.Addr,
		ProbeInterval:    cfg.GossipInterval,
		SuspicionTimeout: cfg.SuspicionTimeout,
		SyncInterval:     cfg.SyncInterval,
		DeadSyncFraction: cfg.DeadSyncFraction,
		OnChange:         n.applyMembership,
	}, n.gossipCall)
	if err != nil {
		srv.Close()
		return nil, err
	}
	g.RegisterMetrics(reg)
	// The endpoint already serves (a restarted node reuses its address) and
	// answers "starting" until a view is published, so gossip is assigned
	// first: a reader that saw a view may use it. gossip.New fires no
	// OnChange, and serve hands gossip no message before this store.
	n.gossip = g
	n.view.Store(buildView([]string{n.cfg.Addr}, cfg.Repl, cfg.MaintainEnv))
	if cfg.Seed != "" {
		// The bootstrap join is one RPC on a network that may well be
		// lossy — a single dropped packet must not kill the boot, so the
		// exchange retries a few times before giving up. It also moves a
		// full membership table each way, so it gets more patience than
		// an ordinary call.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 4*cfg.CallTimeout)
			err = n.gossip.Join(ctx, cfg.Seed)
			cancel()
			if err == nil {
				break
			}
		}
		if err != nil {
			srv.Close()
			n.pool.close() // join may have pooled a connection to the seed
			return nil, fmt.Errorf("node: %w", err)
		}
	}
	n.gossip.Start()
	n.done.Add(1)
	go n.sweeper()
	if n.tuner != nil {
		n.done.Add(1)
		go n.retuner()
	}
	return n, nil
}

// Addr returns the node's serving address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// now is the node's round clock.
func (n *Node) now() int { return int(time.Since(n.epoch) / n.cfg.RoundDuration) }

// Tuner exposes the adaptive control plane, nil unless Config.Adaptive.
func (n *Node) Tuner() *adapt.Tuner { return n.tuner }

// ---- persistence ----

// roundOf converts an absolute wall-clock deadline onto the node's round
// clock, rounding up so a deadline mid-round carries the entry through
// that round rather than lapsing it early.
func (n *Node) roundOf(deadline time.Time) int {
	d := deadline.Sub(n.epoch)
	rounds := int(d / n.cfg.RoundDuration)
	if d%n.cfg.RoundDuration > 0 {
		rounds++
	}
	return rounds
}

// roundDeadline is the inverse seam: the absolute wall-clock instant a
// cache expiry round maps to — what the journal records instead of a
// duration, so the remaining-TTL invariant survives a restart.
func (n *Node) roundDeadline(expires int) time.Time {
	return n.epoch.Add(time.Duration(expires) * n.cfg.RoundDuration)
}

// recoverPersisted replays the store's recovered state into the peer:
// content entries verbatim, index entries re-admitted at their REMAINING
// TTL — the journaled absolute deadline converted onto this process's
// fresh round clock, so an entry granted 120 rounds that crashed with 50
// left comes back with 50, not 120. Entries whose deadline passed while
// the process was down were already dropped (and counted) by the store's
// own replay. Runs in New before the endpoint serves and before the cache
// hook is installed, so recovery is single-threaded and journals nothing.
func (n *Node) recoverPersisted() {
	now := n.now()
	for _, e := range n.persist.Recovered() {
		if e.Deadline.IsZero() {
			n.store[keyspace.Key(e.Key)] = e.Value
			continue
		}
		expires := n.roundOf(e.Deadline)
		if expires <= now {
			continue // lapsed in the gap between store open and replay
		}
		n.cache.Put(keyspace.Key(e.Key), core.Value(e.Value), expires, now)
	}
}

// persistHook is the cache mutation hook: every index state change is
// journaled synchronously under mu (the cache's serialization), carrying
// its absolute expiry deadline. An append error degrades durability, not
// serving — the store counts it (pdht_store_append_errors_total) and the
// node keeps answering.
func (n *Node) persistHook(m core.Mutation) {
	rec := store.Record{Key: uint64(m.Key), Value: uint64(m.Value)}
	switch m.Kind {
	case core.MutInsert:
		rec.Op = store.OpInsert
		rec.Deadline = n.roundDeadline(m.Expires)
	case core.MutRefresh:
		rec.Op = store.OpRefresh
		rec.Deadline = n.roundDeadline(m.Expires)
	case core.MutExpire, core.MutEvict:
		rec.Op = store.OpExpire
	default:
		return
	}
	_ = n.persist.Append(rec)
}

// Close shuts the node down: the membership loop stops, the endpoint
// stops accepting, in-flight handoff pushers finish (their remaining calls
// fail fast once the pool closes), outbound connections close, the
// sweeper exits, and the persistence store — last, so every mutation the
// shutdown itself caused is journaled — flushes and closes. Idempotent.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closed.Store(true) // no new handoff goroutines from here on
		n.mu.Unlock()
		close(n.stop)
		n.gossip.Stop()
		n.srv.Close()
		n.pool.close()
		n.handoffs.Wait()
		n.done.Wait()
		if n.persist != nil {
			n.closeErr = n.persist.Close()
		}
	})
	n.done.Wait()
	return n.closeErr
}

// ---- membership ----

// gossipCall carries one membership-protocol message over the node's
// pooled connections — the Caller internal/gossip is wired with.
func (n *Node) gossipCall(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
	n.m.addMsgs(stats.MsgControl, 1)
	resp, err := n.callCtx(ctx, addr, transport.Request{
		Op: transport.OpGossip, From: n.cfg.Addr, Gossip: &msg,
	})
	if err != nil {
		return transport.Gossip{}, false, err
	}
	if resp.Err != "" {
		return transport.Gossip{}, false, fmt.Errorf("node: gossip to %s: %s", addr, resp.Err)
	}
	if resp.Gossip == nil {
		return transport.Gossip{}, resp.OK, nil
	}
	return *resp.Gossip, resp.OK, nil
}

// applyMembership is the gossip OnChange hook: a confirmed membership
// change arrived, so derive the next view at the new version and, if
// replica groups moved, hand the affected index entries to their new
// owners. Notifications can arrive out of order (gossip fires them from
// the protocol loop and inbound handlers concurrently); stale versions are
// discarded.
//
// The notification carries the full alive set, not a delta — deltas from
// concurrent out-of-order notifications could not be replayed safely — so
// the node computes its OWN delta against the view it actually holds (a
// linear walk of two sorted lists) and applies it incrementally: only the
// changed members' vnodes are spliced, and only
// cache entries inside the transition's affected arcs are snapshotted for
// handoff planning. At a thousand members this turns every membership
// event from an O(n) rebuild plus a full-index scan into work proportional
// to the change.
func (n *Node) applyMembership(alive []string, version uint64) {
	sorted := append([]string(nil), alive...)
	sort.Strings(sorted)
	n.mu.Lock()
	old := n.view.Load()
	if n.closed.Load() || version <= old.version {
		n.mu.Unlock()
		return
	}
	joined, left := diffSorted(old.members, sorted)
	if len(joined) == 0 && len(left) == 0 {
		// Same membership at a newer version (e.g. an incarnation-only
		// change): adopt the version, nothing to hand off. The view is
		// immutable once installed, so install a shallow successor.
		next := *old
		next.version = version
		n.view.Store(&next)
		n.mu.Unlock()
		return
	}
	v := old.applyDelta(sorted, joined, left, version)
	arcs := transitionArcs(old, v, joined, left)
	n.view.Store(v)
	var entries []core.Entry
	if old.hash != v.hash {
		if arcs.All {
			entries = n.cache.Entries(n.now())
		} else {
			entries = n.cache.EntriesWhere(n.now(), arcs.Contains)
		}
	}
	if len(entries) > 0 {
		n.handoffs.Add(1)
		go n.runHandoff(old, v, entries)
	}
	n.mu.Unlock()
}

// ViewVersion returns the gossip version of the installed view.
func (n *Node) ViewVersion() uint64 { return n.view.Load().version }

// ViewHash returns the membership fingerprint of the installed view —
// equal hashes on two nodes mean byte-identical member lists and identical
// replica-group arithmetic. The chaos harness uses it for O(n) fleet
// convergence checks instead of comparing member lists pairwise.
func (n *Node) ViewHash() uint64 { return n.view.Load().hash }

// ReplicaSet returns the addresses this node's current view places key's
// replica group on, primary first and in the order a query fails over
// through them — the placement oracle chaos accounting compares across a
// fleet to detect double ownership.
func (n *Node) ReplicaSet(key uint64) []string {
	return n.view.Load().Replicas(keyspace.Key(key))
}

// IndexHas reports whether the node's index currently holds an unexpired
// entry for key, without refreshing it — a read-only accounting probe.
func (n *Node) IndexHas(key uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.cache.Expires(keyspace.Key(key), n.now())
	return ok
}

// Membership returns the full gossip table — every member ever heard of
// with its status and incarnation — sorted by address. The CLI's live
// status view.
func (n *Node) Membership() []gossip.Member {
	return n.gossip.Snapshot()
}

// ---- RPC server side ----

// handle dispatches one inbound request, recording server-side spans when
// the request belongs to a sampled cluster-wide trace. The common case —
// TraceID zero — is a direct tail call into serve; a time.Now pair and a
// small span slice are paid only by traced requests.
func (n *Node) handle(req transport.Request) transport.Response {
	if req.TraceID == 0 {
		return n.serve(req)
	}
	start := time.Now()
	resp := n.serve(req)
	resp.Spans = n.serverSpans(req, resp, time.Since(start))
	return resp
}

// serverSpans describes what serve just did for the querying peer's
// causality tree: the operation's server-side leg plus, when the mutation
// was journaled, the store-append sub-step. Offsets are relative to request
// receipt (see obs.Span).
func (n *Node) serverSpans(req transport.Request, resp transport.Response, d time.Duration) []obs.Span {
	var name, outcome string
	switch req.Op {
	case transport.OpQuery:
		name, outcome = "index-lookup", hitMiss(resp.Found)
	case transport.OpInsert:
		name, outcome = "insert", storedRefused(resp.OK)
	case transport.OpRefresh:
		name = "refresh"
		if resp.OK {
			outcome = "ok"
		} else {
			outcome = "missing"
		}
	case transport.OpBroadcast:
		name, outcome = "content-lookup", hitMiss(resp.Found)
	case transport.OpBatch:
		name, outcome = "batch", fmt.Sprintf("%d items", len(req.Batch))
	case transport.OpTopK:
		name = "topk-scan"
		if resp.TopK != nil {
			outcome = fmt.Sprintf("%d entries", len(resp.TopK.Entries))
		}
	default:
		return nil // gossip and stats traffic is not part of query traces
	}
	switch resp.Err {
	case "":
	case transport.StaleView:
		outcome = "stale-view"
	default:
		outcome = "error"
	}
	spans := []obs.Span{{Name: name, Outcome: outcome, Duration: d}}
	if n.persist != nil && resp.Err == "" && resp.OK &&
		(req.Op == transport.OpInsert || req.Op == transport.OpRefresh) {
		// The journal append happened inside the op, under mu; it is shown
		// as an instantaneous sub-step at the op's end.
		spans = append(spans, obs.Span{Name: "store-append", Outcome: "ok", Start: d})
	}
	return spans
}

// storedRefused is the insert-leg outcome label.
func storedRefused(ok bool) string {
	if ok {
		return "stored"
	}
	return "refused"
}

// serve executes one inbound request. It runs on a transport goroutine;
// the data it touches is behind mu, and a published view means the node is
// ready.
func (n *Node) serve(req transport.Request) transport.Response {
	switch req.Op {
	case transport.OpQuery, transport.OpInsert, transport.OpRefresh, transport.OpBatch, transport.OpBroadcast:
		// Not inlined here: handlers start on fresh goroutine stacks, and a
		// deeper serve frame measurably slowed QueryTopK (CHANGES, PR 14).
		return n.serveData(req)
	}
	if n.view.Load() == nil {
		return transport.Response{Err: "node starting"}
	}
	switch req.Op {
	case transport.OpGossip:
		if req.Gossip == nil {
			return transport.Response{Err: "gossip without payload"}
		}
		reply, ok := n.gossip.HandleMessage(*req.Gossip)
		return transport.Response{OK: ok, Gossip: &reply}
	case transport.OpTopK:
		return n.serveTopK(req)
	case transport.OpStats:
		snap := n.reg.Snapshot()
		snap.Addr = n.cfg.Addr
		return transport.Response{OK: true, Stats: &snap}
	default:
		return transport.Response{Err: fmt.Sprintf("unknown op %v", req.Op)}
	}
}

// serveData serves the operations answered from the index cache or the
// content store. Each takes mu once: the view is loaded under it, so the
// readiness check, the view-hash guard and the operation itself share one
// critical section with applyMembership's handoff snapshot.
func (n *Node) serveData(req transport.Request) transport.Response {
	results := make([]transport.BatchResult, len(req.Batch)) // before the lock; free when empty
	n.mu.Lock()
	v := n.view.Load()
	if v == nil {
		n.mu.Unlock()
		return transport.Response{Err: "node starting"}
	}
	if req.Op == transport.OpBroadcast {
		v, ok := n.store[keyspace.Key(req.Key)]
		n.mu.Unlock()
		return transport.Response{OK: true, Found: ok, Value: v}
	}
	// Routed operations are only answered between nodes that agree on the
	// membership list — and therefore on replica-group arithmetic. A hash
	// mismatch would silently mis-route (see the rank-shift note on view),
	// so it is refused with the responder's gossip state attached: the
	// stale side converges instead of trusting a wrong answer. Zero skips
	// the check (handoff pushes span view changes by design).
	if req.ViewHash != 0 && req.ViewHash != v.hash {
		n.mu.Unlock() // gossip has its own lock; never nest it under mu
		st := n.gossip.State()
		return transport.Response{Err: transport.StaleView, Gossip: &st}
	}
	now := n.now() // read under mu; see LiveKeys
	var refreshed uint64
	if req.Op == transport.OpBatch {
		// Every item gets its own result — one malformed or refused item
		// never fails the round trip.
		for i, it := range req.Batch {
			results[i] = n.applyItem(now, it, &refreshed)
		}
		n.mu.Unlock()
		n.m.refreshes.Add(refreshed)
		return transport.Response{OK: true, Batch: results}
	}
	it := transport.BatchItem{Op: req.Op, Key: req.Key, Value: req.Value, TTL: req.TTL}
	if req.Op == transport.OpQuery {
		it.TTL = 0 // only a batched query piggybacks the refresh
	}
	r := n.applyItem(now, it, &refreshed)
	n.mu.Unlock()
	if refreshed > 0 {
		n.m.refreshes.Inc()
	}
	return transport.Response{OK: r.OK, Found: r.Found, Value: r.Value, Err: r.Err}
}

// maxWireTTL is the longest lifetime, in rounds, a peer accepts on an index
// operation: 68 years of one-second rounds, four orders of magnitude past
// the tuner's ceiling (adapt.Config.TTLMax). A TTL arrives as a varint the
// sender controls, and now+TTL must stay clear of core.NeverExpires — an
// entry with that expiry is pinned, never evicted, and admitted over
// capacity once the cache holds nothing else.
const maxWireTTL = math.MaxInt32

// applyItem executes one index operation against the cache — a unary
// OpQuery/OpInsert/OpRefresh request or one item of an OpBatch. The caller
// holds mu, read now under it, and counts *refreshed after releasing it.
func (n *Node) applyItem(now int, it transport.BatchItem, refreshed *uint64) transport.BatchResult {
	if it.TTL > maxWireTTL {
		return transport.BatchResult{Err: "ttl out of range"}
	}
	k := keyspace.Key(it.Key)
	switch it.Op {
	case transport.OpQuery:
		v, ok := n.cache.Get(k, now)
		if ok && it.TTL > 0 {
			// The amortized reset-on-hit rule: a batched query carries
			// the TTL so the refresh the unary path pays a separate
			// OpRefresh message for rides the same round trip.
			if n.cache.Refresh(k, now+it.TTL, now) {
				*refreshed++
			}
		}
		return transport.BatchResult{OK: true, Found: ok, Value: uint64(v)}
	case transport.OpInsert:
		if it.TTL < 1 {
			return transport.BatchResult{Err: "insert without ttl"}
		}
		return transport.BatchResult{OK: n.cache.Put(k, core.Value(it.Value), now+it.TTL, now)}
	case transport.OpRefresh:
		if it.TTL < 1 {
			return transport.BatchResult{Err: "refresh without ttl"}
		}
		ok := n.cache.Refresh(k, now+it.TTL, now)
		if ok {
			*refreshed++
		}
		return transport.BatchResult{OK: ok}
	default:
		return transport.BatchResult{Err: "op " + it.Op.String() + " not batchable"}
	}
}

// KV is one key→value pair of a batched publish.
type KV struct {
	Key   uint64
	Value uint64
}

// serveTopK answers one OpTopK probe: score the local content store
// against the request's terms and return the best entries of the asked
// window. Content is unrouted — any peer may hold any document — so the
// op is not subject to the ViewHash check.
func (n *Node) serveTopK(req transport.Request) transport.Response {
	if req.TopK == nil {
		return transport.Response{Err: "topk without payload"}
	}
	n.mu.Lock()
	resp := topk.Serve(*req.TopK, func(term uint64) (uint64, bool) {
		doc, ok := n.store[keyspace.Key(term)]
		return doc, ok
	}, nil) // nil: topk.MatchScorer
	n.mu.Unlock()
	return transport.Response{OK: true, TopK: &resp}
}

// ---- RPC client side ----

// callCtx is one outbound RPC with the deadline under caller control — the
// membership layer probes on its own, tighter clock than the engine's call.
func (n *Node) callCtx(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	resp, err := n.pool.call(ctx, addr, req)
	if err != nil {
		n.m.rpcFailures.Add(1)
	}
	return resp, err
}

// ---- content ----

// Publish installs key→value in this node's local content store — the
// content the unstructured broadcast searches. It models the node being a
// content provider; published keys are what broadcasts can resolve.
// Fails with ErrClosed after Close.
func (n *Node) Publish(ctx context.Context, key, value uint64) error {
	return n.PublishMany(ctx, []KV{{Key: key, Value: value}})
}

// PublishMany installs a batch of key→value pairs in the local content
// store — one lock acquisition for the whole batch.
func (n *Node) PublishMany(ctx context.Context, pairs []KV) error {
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return ErrClosed
	}
	for _, p := range pairs {
		n.store[keyspace.Key(p.Key)] = p.Value
		if n.persist != nil {
			_ = n.persist.Append(store.Record{Op: store.OpPublish, Key: p.Key, Value: p.Value})
		}
	}
	return nil
}

// StoredKeys returns the size of the local content store.
func (n *Node) StoredKeys() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.store)
}

// LiveKeys returns the keys currently live in this node's index cache —
// test and measurement plumbing for cluster-wide index-size ground truth.
// The round is read under mu: a value captured before lock acquisition can
// go stale while the lock is contended, and the snapshot would then
// include entries the sweeper is about to collect (see cache.Entries).
func (n *Node) LiveKeys() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := n.cache.Keys(n.now())
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)
	}
	return out
}

// liveEntries snapshots the live cache rows — keys with values and expiry
// rounds — with the round clock read under the same lock that serializes
// the cache, so the snapshot can never contain an entry already expired
// at snapshot time.
func (n *Node) liveEntries() []core.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache.Entries(n.now())
}

// ---- the engine's hooks ----

// staleView is the engine's stale hook: a member does not install views
// itself, so the refuser's membership state goes to gossip (the "caller
// refetches the view" half of the protocol) and the refused leg is a miss.
func (n *Node) staleView(resp transport.Response) staleAction {
	if resp.Gossip != nil {
		n.gossip.MergeState(*resp.Gossip)
	}
	return staleMiss
}

// countQueried feeds Report's Zipf fit. The tracked universe is capped so a
// wide or adversarial key stream cannot grow memory without bound (the index
// cache itself is capacity-bounded).
func (n *Node) countQueried(keys ...uint64) {
	n.mu.Lock()
	for _, key := range keys {
		k := keyspace.Key(key)
		if _, tracked := n.queryCounts[k]; tracked || len(n.queryCounts) < 8*n.cfg.Capacity {
			n.queryCounts[k]++
		}
	}
	n.mu.Unlock()
}

// Query is the engine's Query, with the key counted for Report.
func (n *Node) Query(ctx context.Context, key uint64) (QueryResult, error) {
	n.countQueried(key)
	return n.engine.Query(ctx, key)
}

// QueryMany is the engine's QueryMany, with the keys counted for Report.
func (n *Node) QueryMany(ctx context.Context, keys []uint64) ([]QueryResult, error) {
	n.countQueried(keys...)
	return n.engine.QueryMany(ctx, keys)
}

// ---- background work ----

// sweeper is the background expiry loop: once per round it collects
// expired cache entries (keys that stopped being queried silently fall out
// — the defining behavior of the selection algorithm), updates the
// index-size gauge, and runs routing-table maintenance when configured.
func (n *Node) sweeper() {
	defer n.done.Done()
	tick := time.NewTicker(n.cfg.RoundDuration)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.mu.Lock()
			live := n.cache.Live(n.now()) // prunes expired entries
			n.mu.Unlock()
			// Only this goroutine draws from a view's mrng. 0 unless
			// MaintainEnv is set.
			probes := n.view.Load().maintain()
			n.m.indexSize.Set(int64(live))
			n.m.addMsgs(stats.MsgMaintenance, probes)
		}
	}
}

// retuner is the adaptive control loop: every RetuneInterval it closes the
// tuner's observation window, refits the paper's model to the traffic this
// node saw, and installs the recommended keyTtl for future inserts and
// refreshes. Entries already in the cache keep the TTL they were granted —
// shrinking the recommendation never mass-expires the index. A window with
// no traffic (or too few members to pose the model) leaves the previous
// recommendation standing.
func (n *Node) retuner() {
	defer n.done.Done()
	tick := time.NewTicker(n.cfg.RetuneInterval)
	defer tick.Stop()
	last := n.now()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			now := n.now()
			window := now - last
			if window < 1 {
				continue // sub-round interval; wait for the clock
			}
			last = now
			in := adapt.Inputs{
				Members:      len(n.view.Load().members),
				Observers:    1, // a peer observes only its own queries
				Capacity:     n.cfg.Capacity,
				Repl:         n.cfg.Repl,
				Env:          n.cfg.MaintainEnv,
				WindowRounds: window,
				// Hits fan the refresh out to the whole replica set.
				RefreshFanout: true,
			}
			if _, err := n.tuner.Retune(in); err == nil {
				n.m.retunes.Add(1)
			}
			// The top-k planner's yield history ages with the same clock
			// as the tuner's observation windows.
			n.planner.Decay()
		}
	}
}
