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

// Fleet is N live node.Node instances in one process, booted as a
// node.Cluster whose slot i serves as "peer-%04d" on the chaos Network's
// view of one memory transport. Every node is the real thing — gossip,
// adaptive tuner, handoff, the full RPC surface — only the wire misbehaves
// on command.
type Fleet struct {
	*node.Cluster
	Net *Network
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
// as the baseline profile; the scenario fields are Run's. The caller
// should WaitConverged before trusting placement.
func NewFleet(cfg RunConfig) (*Fleet, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("chaos: fleet needs at least 2 nodes, got %d", cfg.N)
	}
	net := New(transport.NewMemory(), cfg.Chaos)
	c, err := node.NewClusterSlots(cfg.N, fillNodeDefaults(cfg.Node), func(i int) (node.Slot, error) {
		addr := fmt.Sprintf("peer-%04d", i)
		return node.Slot{Transport: net.Node(addr), Addr: addr}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fleet{Cluster: c, Net: net}, nil
}

// round is the fleet's round duration.
func (f *Fleet) round() time.Duration { return f.Node(0).Config().RoundDuration }

// waitConverged is WaitConverged timed, with onProgress (when set) called
// every two seconds of the wait — how a five-minute thousand-node wait
// distinguishes "still spreading" from "stuck".
func (f *Fleet) waitConverged(timeout time.Duration, onProgress func(time.Duration, node.ClusterProgress)) (time.Duration, bool) {
	start := time.Now()
	if onProgress != nil {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					onProgress(time.Since(start), f.Progress())
				}
			}
		}()
		defer func() { close(stop); <-stopped }()
	}
	err := f.WaitConverged(timeout)
	return time.Since(start), err == nil
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
		want := fmt.Sprint(f.Node(0).ReplicaSet(k))
		for j := 1; j < f.Size(); j++ {
			if fmt.Sprint(f.Node(j).ReplicaSet(k)) != want {
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
		e := ledgerEntry{key: k, value: k ^ 0xdecade, deadline: time.Now().Add(time.Duration(ttl) * f.round())}
		for _, addr := range f.Node(0).ReplicaSet(k) {
			cli, err := f.Net.inner.Dial(addr)
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
	slack := 3 * l.fleet.round()
	var acc Accounting
	for _, e := range l.entries {
		acc.Checked++
		held := false
		for i := 0; i < l.fleet.Size(); i++ {
			if l.fleet.Node(i).IndexHas(e.key) {
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
	OnProgress func(elapsed time.Duration, p node.ClusterProgress)
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
	tmpl := fillNodeDefaults(cfg.Node)

	rep := &Report{N: cfg.N, Seed: cfg.Chaos.Seed, Schedule: cfg.Scenario.String()}
	rep.Bound = ConvergenceBound(cfg.N, tmpl.GossipInterval, tmpl.SuspicionTimeout, tmpl.SyncInterval, tmpl.DeadSyncFraction)
	if healWindow == 0 {
		healWindow = rep.Bound
	}

	boot, ok := f.waitConverged(cfg.BootTimeout, cfg.OnProgress)
	rep.BootConverge = boot
	if !ok {
		return rep, fmt.Errorf("chaos: fleet of %d failed to converge within %s after boot", cfg.N, cfg.BootTimeout)
	}

	// Ledger: half the entries outlive the whole run (loss detection),
	// half expire mid-scenario (resurrection detection).
	var ledger *Ledger
	if cfg.Entries > 0 {
		longTTL := int((scenario.Total()+healWindow)/f.round()) + 120
		shortTTL := int(scenario.Total() / (2 * f.round()))
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
	heal, ok := f.waitConverged(healWindow, cfg.OnProgress)
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
	for i := 0; i < f.Size(); i++ {
		r := f.Node(i).Report()
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
		_ = f.Node(i%f.Size()).Publish(pubCtx, wlKey(i), uint64(i))
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
				n := f.Node(rng.IntN(f.Size()))
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
