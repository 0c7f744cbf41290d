package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/node"
	"pdht/internal/transport"
	"pdht/internal/zipf"
)

// Fleet is N live node.Node instances in one process, wired through a
// chaos Network over the in-memory transport. Every node is the real
// thing — gossip, adaptive tuner, handoff, the full RPC surface — only the
// wire misbehaves on command.
type Fleet struct {
	Net   *Network
	Nodes []*node.Node
	Addrs []string

	// OnProgress, when set, is invoked roughly every two seconds from
	// WaitConverged with a convergence snapshot — how a five-minute
	// thousand-node wait distinguishes "still spreading" from "stuck".
	OnProgress func(elapsed time.Duration, p ProgressSnapshot)

	mem *transport.Memory
	rd  time.Duration
}

// ProgressSnapshot summarises how far a fleet is from a uniform view.
type ProgressSnapshot struct {
	// MinMembers and MaxMembers are the smallest and largest member
	// counts any node currently holds.
	MinMembers, MaxMembers int
	// DistinctViews is the number of distinct view hashes across the
	// fleet — 1 means converged (given full member counts).
	DistinctViews int
}

// Progress computes a convergence snapshot of the fleet.
func (f *Fleet) Progress() ProgressSnapshot {
	p := ProgressSnapshot{MinMembers: int(^uint(0) >> 1)}
	hashes := make(map[uint64]struct{}, 8)
	for _, n := range f.Nodes {
		m := len(n.Members())
		if m < p.MinMembers {
			p.MinMembers = m
		}
		if m > p.MaxMembers {
			p.MaxMembers = m
		}
		hashes[n.ViewHash()] = struct{}{}
	}
	p.DistinctViews = len(hashes)
	return p
}

// DefaultFleetNode is the node template a fleet uses for zero
// RunConfig.Node fields: the paper's clock compressed 10× (100ms rounds),
// gossip beating every 40ms so membership timescales compress with it,
// and RPC timeouts tight enough that blackholed calls fail fast instead of
// stalling probes.
func DefaultFleetNode() node.Config {
	return node.Config{
		Repl:             3,
		KeyTtl:           120,
		Capacity:         4096,
		RoundDuration:    100 * time.Millisecond,
		CallTimeout:      250 * time.Millisecond,
		GossipInterval:   40 * time.Millisecond,
		SuspicionTimeout: 200 * time.Millisecond,
		SyncInterval:     160 * time.Millisecond,
	}
}

// fillNodeDefaults overlays DefaultFleetNode onto zero fields of c.
func fillNodeDefaults(c node.Config) node.Config {
	d := DefaultFleetNode()
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
		c.GossipInterval = d.GossipInterval
	}
	if c.SuspicionTimeout == 0 {
		c.SuspicionTimeout = d.SuspicionTimeout
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = d.SyncInterval
	}
	return c
}

// NewFleet boots cfg.N nodes ("peer-0000"…) from the cfg.Node template
// over a fresh memory transport wrapped by a chaos Network with cfg.Chaos
// as the baseline profile; the scenario fields are Run's. Nodes boot in
// waves, each joining an already-booted one; the caller should
// WaitConverged before trusting placement. On error the partial fleet is
// torn down.
func NewFleet(cfg RunConfig) (*Fleet, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("chaos: fleet needs at least 2 nodes, got %d", cfg.N)
	}
	tmpl := fillNodeDefaults(cfg.Node)
	f := &Fleet{
		mem:   transport.NewMemory(),
		Addrs: make([]string, cfg.N),
		rd:    tmpl.RoundDuration,
	}
	f.Net = New(f.mem, cfg.Chaos)
	for i := range f.Addrs {
		f.Addrs[i] = fmt.Sprintf("peer-%04d", i)
	}
	f.Nodes = make([]*node.Node, cfg.N)
	boot := func(i int, seed string) error {
		c := tmpl
		c.Addr = f.Addrs[i]
		c.Seed = seed
		n, err := node.New(f.Net.Node(c.Addr), c)
		if err != nil {
			return fmt.Errorf("chaos: boot %s: %w", c.Addr, err)
		}
		f.Nodes[i] = n
		return nil
	}
	if err := boot(0, ""); err != nil {
		return nil, err
	}
	// Later nodes boot in parallel waves, each joining a random
	// already-booted node: a serial boot of a thousand nodes all joining
	// node 0 both takes minutes and melts the seed under full-state
	// exchanges, and no real fleet rolls out that way either.
	rng := rand.New(rand.NewPCG(cfg.Chaos.Seed, 0xb007))
	const wave = 64
	for lo := 1; lo < cfg.N; lo += wave {
		hi := lo + wave
		if hi > cfg.N {
			hi = cfg.N
		}
		errs := make(chan error, hi-lo)
		for i := lo; i < hi; i++ {
			seed := f.Addrs[rng.IntN(lo)]
			go func(i int, seed string) { errs <- boot(i, seed) }(i, seed)
		}
		var firstErr error
		for i := lo; i < hi; i++ {
			if err := <-errs; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			f.Close()
			return nil, firstErr
		}
	}
	return f, nil
}

// Close shuts every node down, in parallel (a serial close of a thousand
// nodes would dominate test time).
func (f *Fleet) Close() {
	var wg sync.WaitGroup
	for _, n := range f.Nodes {
		if n == nil { // partial boot
			continue
		}
		wg.Add(1)
		go func(n *node.Node) {
			defer wg.Done()
			_ = n.Close()
		}(n)
	}
	wg.Wait()
}

// Converged reports whether every node has installed the identical full
// membership view: all view hashes equal (equal hash ⇒ byte-identical
// member lists) and node 0 seeing the whole fleet.
func (f *Fleet) Converged() bool {
	if len(f.Nodes[0].Members()) != len(f.Nodes) {
		return false
	}
	want := f.Nodes[0].ViewHash()
	for _, n := range f.Nodes[1:] {
		if n.ViewHash() != want {
			return false
		}
	}
	return true
}

// WaitConverged polls Converged until it holds or timeout elapses,
// returning the elapsed time and whether convergence was reached.
func (f *Fleet) WaitConverged(timeout time.Duration) (time.Duration, bool) {
	start := time.Now()
	poll := f.rd / 4
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	lastReport := start
	for {
		if f.Converged() {
			return time.Since(start), true
		}
		if time.Since(start) > timeout {
			return time.Since(start), false
		}
		if f.OnProgress != nil && time.Since(lastReport) >= 2*time.Second {
			lastReport = time.Now()
			f.OnProgress(time.Since(start), f.Progress())
		}
		time.Sleep(poll)
	}
}

// PlacementDisagreements samples keys and counts those whose replica set
// differs between any node and node 0 — after convergence this must be
// zero, or two nodes would route the same key to different owners
// (double ownership).
func (f *Fleet) PlacementDisagreements(samples int, seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, 0x5bf0_3635))
	bad := 0
	for i := 0; i < samples; i++ {
		k := rng.Uint64()
		want := fmt.Sprint(f.Nodes[0].ReplicaSet(k))
		for _, n := range f.Nodes[1:] {
			if fmt.Sprint(n.ReplicaSet(k)) != want {
				bad++
				break
			}
		}
	}
	return bad
}

// ---- Entry accounting ----

// ledgerEntry is one seeded index entry with its absolute wall-clock
// expiry. Ledger keys are never queried (a query hit refreshes the entry,
// moving its expiry), so the deadline recorded at seed time stays the
// truth for the entry's whole life regardless of handoffs.
type ledgerEntry struct {
	key      uint64
	value    uint64
	deadline time.Time
}

// Ledger is the ground truth for entry accounting: which keys were seeded,
// and exactly when each must disappear. Check compares it against the
// fleet's live indexes to detect loss (gone too early) and resurrection
// (alive too late) across partition-driven handoffs.
type Ledger struct {
	fleet   *Fleet
	entries []ledgerEntry
}

// SeedEntries installs count entries with the given TTL (in rounds)
// directly at their replica sets, recording each entry's absolute expiry.
// The pushes use the raw inner transport — seeding is test setup, not part
// of the chaos — and go out with a zero view hash, the handoff-path form
// that is valid across view transitions. The fleet should be converged
// and healthy; an unreachable replica fails the seed.
func (f *Fleet) SeedEntries(seed uint64, count, ttl int) (*Ledger, error) {
	l := &Ledger{fleet: f}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < count; i++ {
		k := uint64(keyspace.HashString(fmt.Sprintf("chaos-entry-%d-%d", seed, i)))
		e := ledgerEntry{key: k, value: k ^ 0xdecade, deadline: time.Now().Add(time.Duration(ttl) * f.rd)}
		for _, addr := range f.Nodes[0].ReplicaSet(k) {
			cli, err := f.mem.Dial(addr)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed dial %s: %w", addr, err)
			}
			resp, err := cli.Call(ctx, transport.Request{Op: transport.OpInsert, Key: k, Value: e.value, TTL: ttl})
			if err != nil {
				return nil, fmt.Errorf("chaos: seed push %s: %w", addr, err)
			}
			if !resp.OK {
				return nil, fmt.Errorf("chaos: seed push %s refused: %s", addr, resp.Err)
			}
		}
		l.entries = append(l.entries, e)
	}
	return l, nil
}

// Accounting is a Ledger.Check result: every seeded entry classified
// against its absolute deadline.
type Accounting struct {
	// Checked is the ledger size; Indeterminate the entries whose
	// deadline is within the round-quantization slack of now, where
	// neither presence nor absence is evidence of anything.
	Checked       int `json:"checked"`
	Indeterminate int `json:"indeterminate"`
	// Held counts live entries found on some node before their deadline;
	// Lost those absent from EVERY node while still supposed to be alive
	// — an entry a partition or handoff dropped on the floor.
	Held int `json:"held"`
	Lost int `json:"lost"`
	// ExpiredGone counts entries past their deadline and properly absent
	// everywhere; Resurrected those still served past it — a stale copy
	// some handoff re-admitted with more lifetime than the original had
	// left.
	ExpiredGone int `json:"expiredGone"`
	Resurrected int `json:"resurrected"`
}

// Check scans the whole fleet for every ledger entry and classifies it.
// The slack around each deadline covers round quantization: nodes count
// rounds from their own epochs, so expiry lands within ±1 round of the
// wall-clock deadline, plus one round of sweep latency.
func (l *Ledger) Check() Accounting {
	slack := 3 * l.fleet.rd
	var acc Accounting
	for _, e := range l.entries {
		acc.Checked++
		held := false
		for _, n := range l.fleet.Nodes {
			if n.IndexHas(e.key) {
				held = true
				break
			}
		}
		now := time.Now()
		switch {
		case now.Before(e.deadline.Add(-slack)):
			if held {
				acc.Held++
			} else {
				acc.Lost++
			}
		case now.After(e.deadline.Add(slack)):
			if held {
				acc.Resurrected++
			} else {
				acc.ExpiredGone++
			}
		default:
			acc.Indeterminate++
		}
	}
	return acc
}

// ---- Scenario runner ----

// RunConfig parameterizes one full chaos run: boot, seed, fault script,
// heal, measure.
type RunConfig struct {
	// N is the fleet size (≥ 2).
	N int
	// Node is the per-node configuration template. Addr and Seed are
	// overwritten per node; zero fields take DefaultFleetNode's values,
	// which compress the paper's one-second round onto 100ms so a
	// multi-minute scenario fits a test budget.
	Node node.Config
	// Chaos is the baseline fault profile; Chaos.Seed drives everything
	// derived (per-link streams, ledger keys, workload sampling).
	Chaos Config
	// Scenario is the fault script. A trailing benign phase ("heal=30s")
	// is treated as the convergence allowance: the runner strips it,
	// heals, and waits up to its duration for the fleet to re-converge —
	// measuring heal-to-convergence exactly instead of sleeping through
	// it.
	Scenario Scenario
	// Entries is the accounting ledger size (split between entries that
	// outlive the run, checked for loss, and entries that expire
	// mid-scenario, checked for resurrection). Zero skips accounting.
	Entries int
	// Workload, when positive, drives that many concurrent query workers
	// with a Zipf stream over WorkloadKeys published keys for the whole
	// scenario — the traffic the adaptive tuner fits. Requires
	// Node.Adaptive for the tuner envelope to be reported.
	Workload     int
	WorkloadKeys int
	// BootTimeout bounds initial convergence (default 60s + 50ms·N).
	BootTimeout time.Duration
	// OnPhase, if non-nil, observes each applied phase (progress logs).
	OnPhase func(Phase)
	// OnProgress, if non-nil, observes convergence snapshots while the
	// runner waits (boot and heal) — the long waits' heartbeat.
	OnProgress func(elapsed time.Duration, p ProgressSnapshot)
}

// Report is a chaos run's outcome, JSON-ready for cmd/pdht-chaos. All
// durations are nanoseconds (time.Duration's JSON form).
type Report struct {
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`
	Schedule string `json:"schedule"`

	// BootConverge is time-to-first-convergence after boot. HealConverge
	// is from the final heal to full re-convergence, and must stay under
	// Bound (ConvergenceBound for the gossip parameters in play);
	// Converged reports that re-convergence happened at all.
	BootConverge time.Duration `json:"bootConvergeNs"`
	HealConverge time.Duration `json:"healConvergeNs"`
	Bound        time.Duration `json:"boundNs"`
	Converged    bool          `json:"converged"`
	WithinBound  bool          `json:"withinBound"`

	// Accounting is the ledger verdict; PlacementDisagreements the
	// double-ownership sample count (want 0 after convergence).
	Accounting             Accounting `json:"accounting"`
	PlacementSamples       int        `json:"placementSamples"`
	PlacementDisagreements int        `json:"placementDisagreements"`

	// Fleet-summed repair-path counters.
	HandoffMsgs uint64 `json:"handoffMsgs"`
	HandoffKeys uint64 `json:"handoffKeys"`
	StaleViews  uint64 `json:"staleViews"`
	Queries     uint64 `json:"queries"`

	// Tuner envelope: the median actuated keyTtl across adaptive nodes,
	// the median model recommendation (Report.Model.IdealKeyTtl: 1/fMin of
	// the scenario fitted to each node's exact query counts — independent
	// of the tuner's sketches), and the median relative deviation between
	// the two on each node — the acceptance criterion caps it at 0.25.
	// TunerUnfitted counts retuned nodes left out, not scored: no finite
	// model TTL, or fewer than minQueriesPerKey queries per distinct key.
	TunerNodes     int     `json:"tunerNodes"`
	TunerUnfitted  int     `json:"tunerUnfitted"`
	TunerTtl       float64 `json:"tunerTtl"`
	ModelTtl       float64 `json:"modelTtl"`
	TunerDeviation float64 `json:"tunerDeviation"`
}

// minQueriesPerKey is the sample a node needs before its tuner is held to
// the envelope. Both fits scale the TTL with the distinct keys they saw;
// on first sightings alone (the 1000-node headline: 2–6 queries a node)
// their ratio is noise, and read 0.4–0.5.
const minQueriesPerKey = 4

// placementSamples is the key sample size of Run's double-ownership check.
const placementSamples = 64

// Run executes one full chaos scenario: boot the fleet, wait for
// convergence, seed the accounting ledger, start the query workload, play
// the fault script, heal, measure re-convergence against the computed
// bound, then audit entries, placement and the tuner envelope.
func Run(cfg RunConfig) (*Report, error) {
	if cfg.Chaos.Seed == 0 {
		cfg.Chaos.Seed = 1
	}
	if cfg.BootTimeout == 0 {
		cfg.BootTimeout = 60*time.Second + time.Duration(cfg.N)*50*time.Millisecond
	}
	scenario, healWindow := cfg.Scenario, time.Duration(0)
	if n := len(scenario); n > 0 && scenario[n-1].Split == 0 && scenario[n-1].Drop == 0 {
		healWindow = scenario[n-1].Duration
		scenario = scenario[:n-1]
	}

	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	f.OnProgress = cfg.OnProgress
	tmpl := fillNodeDefaults(cfg.Node)

	rep := &Report{N: cfg.N, Seed: cfg.Chaos.Seed, Schedule: cfg.Scenario.String()}
	rep.Bound = ConvergenceBound(cfg.N, tmpl.GossipInterval, tmpl.SuspicionTimeout, tmpl.SyncInterval, tmpl.DeadSyncFraction)
	if healWindow == 0 {
		healWindow = rep.Bound
	}

	boot, ok := f.WaitConverged(cfg.BootTimeout)
	rep.BootConverge = boot
	if !ok {
		return rep, fmt.Errorf("chaos: fleet of %d failed to converge within %s after boot", cfg.N, cfg.BootTimeout)
	}

	// Ledger: half the entries outlive the whole run (loss detection),
	// half expire mid-scenario (resurrection detection).
	var ledger *Ledger
	if cfg.Entries > 0 {
		longTTL := int((scenario.Total()+healWindow)/f.rd) + 120
		shortTTL := int(scenario.Total() / (2 * f.rd))
		if shortTTL < 2 {
			shortTTL = 2
		}
		long, err := f.SeedEntries(cfg.Chaos.Seed, (cfg.Entries+1)/2, longTTL)
		if err != nil {
			return rep, err
		}
		short, err := f.SeedEntries(cfg.Chaos.Seed+1, cfg.Entries/2, shortTTL)
		if err != nil {
			return rep, err
		}
		ledger = &Ledger{fleet: f, entries: append(long.entries, short.entries...)}
	}

	stopWorkload := startWorkload(f, cfg)
	scenario.Run(f.Net, nil, cfg.OnPhase)

	healStart := time.Now()
	heal, ok := f.WaitConverged(healWindow)
	rep.HealConverge, rep.Converged = heal, ok
	rep.WithinBound = ok && time.Since(healStart) <= rep.Bound
	stopWorkload()

	if ledger != nil {
		rep.Accounting = ledger.Check()
	}
	rep.PlacementSamples = placementSamples
	rep.PlacementDisagreements = f.PlacementDisagreements(placementSamples, cfg.Chaos.Seed)

	var devs []float64
	var ttls, models []float64
	for _, n := range f.Nodes {
		r := n.Report()
		rep.HandoffMsgs += r.HandoffMsgs
		rep.HandoffKeys += r.HandoffKeys
		rep.StaleViews += r.StaleViews
		rep.Queries += r.Queries
		if r.Adaptive != nil && r.Adaptive.Retunes > 0 && r.Model != nil {
			a, m := float64(r.Adaptive.KeyTtl), r.Model.IdealKeyTtl
			if m <= 0 || r.Queries < minQueriesPerKey*uint64(r.Model.DistinctKeys) {
				rep.TunerUnfitted++
				continue
			}
			devs = append(devs, math.Abs(a-m)/m)
			ttls = append(ttls, a)
			models = append(models, m)
		}
	}
	rep.TunerNodes = len(devs)
	rep.TunerTtl, rep.ModelTtl, rep.TunerDeviation = median(ttls), median(models), median(devs)
	return rep, nil
}

// startWorkload publishes the workload key population and launches the
// query workers; the returned func stops them and waits for drain.
func startWorkload(f *Fleet, cfg RunConfig) func() {
	if cfg.Workload <= 0 {
		return func() {}
	}
	keys := cfg.WorkloadKeys
	if keys <= 0 {
		keys = 512
	}
	wlKey := func(i int) uint64 {
		return uint64(keyspace.HashString(fmt.Sprintf("chaos-wl-%d-%d", cfg.Chaos.Seed, i)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	pubCtx, pubCancel := context.WithTimeout(ctx, 60*time.Second)
	for i := 0; i < keys; i++ {
		// Publish errors are tolerable: a missing key just makes the
		// first query for it resolve by broadcast, which is also load.
		_ = f.Nodes[i%len(f.Nodes)].Publish(pubCtx, wlKey(i), uint64(i))
	}
	pubCancel()

	dist, err := zipf.New(0.9, keys)
	if err != nil {
		cancel()
		return func() {}
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workload; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Chaos.Seed, uint64(w)*2+1))
			s := zipf.NewSampler(dist, rng)
			for ctx.Err() == nil {
				n := f.Nodes[rng.IntN(len(f.Nodes))]
				qctx, qcancel := context.WithTimeout(ctx, 2*time.Second)
				_, _ = n.Query(qctx, wlKey(s.Sample()))
				qcancel()
			}
		}(w)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
