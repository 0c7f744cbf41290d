package node

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pdht/internal/adapt"
	"pdht/internal/gossip"
	"pdht/internal/model"
	"pdht/internal/obs"
	"pdht/internal/stats"
	"pdht/internal/zipf"
)

// Report is a node's self-measurement: the live counterpart of the
// simulator's sim.Result, with the analytical prediction alongside so a
// deployment can see the paper's model and its own traffic on one line.
type Report struct {
	Addr    string
	Members int
	Rounds  int

	// Query-path counters.
	Queries, Hits, Misses         uint64
	Broadcasts, BroadcastAnswered uint64
	Inserts, Refreshes            uint64
	Unanswered, RPCFailures       uint64
	// StaleViews counts routed RPCs a peer refused because the two sides
	// disagreed on membership — each one a mis-route the hash check
	// turned into an explicit miss.
	StaleViews uint64
	// HandoffMsgs counts entry pushes sent on view changes (the replica
	// repair pass); HandoffKeys the ones the new owner accepted.
	HandoffMsgs, HandoffKeys uint64
	// ReadRepairs counts replica-set members re-inserted on a hit because
	// they answered the reset-on-hit refresh without holding the entry —
	// the read-repair path closing holes churn and lost write legs punch.
	ReadRepairs uint64

	// Adaptive is the control plane's state — nil unless the node runs
	// with Config.Adaptive.
	Adaptive *AdaptiveState

	// ViewVersion is the gossip version of the installed view;
	// Membership the full gossip table behind it (the live status view).
	ViewVersion uint64
	Membership  []gossip.Member

	// HitRate is Hits/Queries — the measured pIndxd of eq. 14.
	HitRate float64
	// IndexedKeys is the number of live entries in this node's cache (the
	// sweeper's gauge); StoredKeys the local content store size.
	IndexedKeys int
	StoredKeys  int
	// Messages is the per-class message breakdown this node paid.
	Messages map[stats.MsgClass]int64

	// Model carries the SolveTTL prediction for a scenario fitted to the
	// observed workload, nil when the node has not seen enough traffic
	// (fewer than 2 members or no queries) to fit one.
	Model *ModelComparison
}

// AdaptiveState reports the query-adaptive control plane: what the tuner
// fitted, what it actuated, and what that cost.
type AdaptiveState struct {
	// KeyTtl is the expiration time currently attached to inserts and
	// refreshes (the tuned value once a retune succeeded, the static
	// config knob before that); Retunes counts successful refits.
	KeyTtl  int
	Retunes uint64
	// GatedInserts counts broadcast-resolved keys the fMin gate refused
	// to index.
	GatedInserts uint64
	// Tuner is the control plane's own snapshot: the fitted scenario
	// (α, fQry, distinct keys), fMin, the gate threshold, and the fixed
	// memory footprint of the frequency summaries.
	Tuner adapt.Snapshot
}

// ModelComparison puts the measured operating point next to the analytical
// model's, the live analogue of the paper's Figures 3–4 comparison.
type ModelComparison struct {
	// The fitted scenario: cluster size, observed distinct keys, the
	// Zipf exponent max-likelihood-fitted to the node's own query
	// counts (EstimateAlpha), and the measured per-peer query rate.
	Peers        int
	DistinctKeys int
	Alpha        float64
	FQry         float64
	KeyTtl       float64
	// IdealKeyTtl is 1/fMin of model.Solve at the fitted scenario — what
	// the expiration time should be, where KeyTtl is the one in force. It
	// comes from the node's exact per-key counts, so the tuner's sketches
	// are checked against it. Zero when the model gives no finite TTL.
	IdealKeyTtl float64
	// PredictedHitRate is eq. 14's pIndxd; PredictedIndexSize eq. 15 —
	// both evaluated at the fitted scenario.
	PredictedHitRate   float64
	PredictedIndexSize float64
	// MeasuredHitRate repeats Report.HitRate; MeasuredIndexSize estimates
	// the cluster-wide distinct indexed keys from this node's share
	// (live entries × members ÷ repl).
	MeasuredHitRate   float64
	MeasuredIndexSize float64
	// PredictedMsgsPerQuery is eq. 17's total cluster cost divided by the
	// cluster query rate (NumPeers × fQry): the model's prediction for the
	// measured msgs/query a FleetReport aggregates.
	PredictedMsgsPerQuery float64
}

// ClusterReport is the engine's fleet aggregation with the paper's headline
// comparison riding along: when this node's traffic supports a model fit,
// SolveTTL's prediction for the cluster msgs/query the report measured.
func (n *Node) ClusterReport(ctx context.Context) (obs.FleetReport, error) {
	fr, err := n.engine.ClusterReport(ctx)
	if err != nil {
		return fr, err
	}
	if m := n.Report().Model; m != nil {
		fr.PredictedMsgsPerQuery = m.PredictedMsgsPerQuery
	}
	return fr, nil
}

// Report assembles the node's current self-measurement.
func (n *Node) Report() Report {
	v := n.view.Load()
	n.mu.Lock()
	distinct := len(n.queryCounts)
	counts := make([]int, 0, distinct)
	for _, c := range n.queryCounts {
		counts = append(counts, int(c))
	}
	stored := len(n.store)
	live := n.cache.Live(n.now())
	n.mu.Unlock()

	r := Report{
		Addr:              n.cfg.Addr,
		Members:           len(v.members),
		Rounds:            n.now(),
		Queries:           n.m.queries.Value(),
		Hits:              n.m.hits.Value(),
		Misses:            n.m.misses.Value(),
		Broadcasts:        n.m.broadcasts.Value(),
		BroadcastAnswered: n.m.broadcastAnswered.Value(),
		Inserts:           n.m.inserts.Value(),
		Refreshes:         n.m.refreshes.Value(),
		Unanswered:        n.m.unanswered.Value(),
		RPCFailures:       n.m.rpcFailures.Value(),
		StaleViews:        n.m.staleViews.Value(),
		HandoffMsgs:       n.m.handoffMsgs.Value(),
		HandoffKeys:       n.m.handoffKeys.Value(),
		ReadRepairs:       n.m.readRepairs.Value(),
		ViewVersion:       v.version,
		Membership:        n.gossip.Snapshot(),
		IndexedKeys:       live,
		StoredKeys:        stored,
		Messages:          n.m.messages(),
	}
	if r.Queries > 0 {
		r.HitRate = float64(r.Hits) / float64(r.Queries)
	}
	if n.tuner != nil {
		r.Adaptive = &AdaptiveState{
			KeyTtl:       n.keyTtl(),
			Retunes:      n.m.retunes.Value(),
			GatedInserts: n.m.gatedInserts.Value(),
			Tuner:        n.tuner.Snapshot(),
		}
	}
	r.Model = n.modelComparison(r, len(v.members), v.repl, distinct, counts)
	return r
}

// modelComparison fits the paper's scenario to the observed workload and
// evaluates SolveTTL at it. Returns nil when the model would be ill-posed.
func (n *Node) modelComparison(r Report, members, repl, distinct int, counts []int) *ModelComparison {
	if members < 2 || r.Queries == 0 || distinct == 0 || r.Rounds == 0 {
		return nil
	}
	alpha, err := zipf.EstimateAlpha(counts, distinct)
	if err != nil {
		alpha = 1.2 // the paper's literature constant [Srip01]
	}
	p := model.Params{
		NumPeers: members,
		Keys:     distinct,
		Stor:     n.cfg.Capacity,
		Repl:     repl,
		Alpha:    alpha,
		// This node's rate stands in for the per-peer average: every
		// peer of the paper's scenario queries at the same rate.
		FQry: float64(r.Queries) / float64(r.Rounds),
		FUpd: 0,
		Env:  n.cfg.MaintainEnv,
		Dup:  1.8,
		Dup2: 1.8,
		// Hits fan the reset-on-hit refresh out to the whole replica set;
		// the prediction must pay the same extra write legs the node does.
		WriteFanout: float64(repl - 1),
	}
	dist, err := zipf.New(alpha, distinct) // built once, for both solves
	if err != nil {
		return nil
	}
	sol, err := model.SolveTTL(p, dist, float64(n.keyTtl()))
	if err != nil {
		return nil
	}
	mc := &ModelComparison{
		Peers:              members,
		DistinctKeys:       distinct,
		Alpha:              alpha,
		FQry:               p.FQry,
		KeyTtl:             sol.KeyTtl,
		PredictedHitRate:   sol.PIndxd,
		PredictedIndexSize: sol.IndexSize,
		MeasuredHitRate:    r.HitRate,
		MeasuredIndexSize:  float64(r.IndexedKeys) * float64(members) / float64(repl),
	}
	if clusterQPS := float64(members) * p.FQry; clusterQPS > 0 {
		mc.PredictedMsgsPerQuery = sol.Cost / clusterQPS
	}
	if ideal, err := model.Solve(p, dist); err == nil {
		mc.IdealKeyTtl = model.IdealKeyTtl(ideal)
	}
	return mc
}

// String renders the report as the multi-line status block the CLI prints.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %s: %d members (view v%d), round %d\n", r.Addr, r.Members, r.ViewVersion, r.Rounds)
	fmt.Fprintf(&b, "  queries %d  hits %d  misses %d  hit-rate %.1f%%\n",
		r.Queries, r.Hits, r.Misses, 100*r.HitRate)
	fmt.Fprintf(&b, "  broadcasts %d (answered %d)  inserts %d  refreshes %d  unanswered %d  rpc-failures %d\n",
		r.Broadcasts, r.BroadcastAnswered, r.Inserts, r.Refreshes, r.Unanswered, r.RPCFailures)
	fmt.Fprintf(&b, "  stale-views %d  handoff %d/%d keys accepted/pushed  read-repairs %d\n",
		r.StaleViews, r.HandoffKeys, r.HandoffMsgs, r.ReadRepairs)
	fmt.Fprintf(&b, "  index entries %d  published keys %d\n", r.IndexedKeys, r.StoredKeys)
	if a := r.Adaptive; a != nil {
		fmt.Fprintf(&b, "  adaptive: keyTtl %d  retunes %d  gated inserts %d  sketches %d KiB\n",
			a.KeyTtl, a.Retunes, a.GatedInserts, a.Tuner.MemoryBytes/1024)
		if a.Tuner.Ready {
			d := a.Tuner.Last
			fmt.Fprintf(&b, "    fitted α=%.2f fQry=%.3g distinct≈%d → fMin=%.3g, gate threshold %d\n",
				d.Alpha, d.FQry, d.DistinctKeys, d.FMin, d.GateThreshold)
		}
	}
	if len(r.Membership) > 0 {
		b.WriteString("  membership:")
		for _, m := range r.Membership {
			fmt.Fprintf(&b, " %s=%s/%d", m.Addr, m.Status, m.Incarnation)
		}
		b.WriteByte('\n')
	}
	classes := make([]stats.MsgClass, 0, len(r.Messages))
	for c := range r.Messages {
		if r.Messages[c] > 0 {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	if len(classes) > 0 {
		b.WriteString("  messages:")
		for _, c := range classes {
			fmt.Fprintf(&b, " %s=%d", c, r.Messages[c])
		}
		b.WriteByte('\n')
	}
	if m := r.Model; m != nil {
		fmt.Fprintf(&b, "  model (SolveTTL @ %d peers, %d keys, α=%.2f, fQry=%.3g, keyTtl=%.0f):\n",
			m.Peers, m.DistinctKeys, m.Alpha, m.FQry, m.KeyTtl)
		fmt.Fprintf(&b, "    hit rate: measured %.1f%% vs predicted %.1f%%\n",
			100*m.MeasuredHitRate, 100*m.PredictedHitRate)
		fmt.Fprintf(&b, "    index size: measured ≈%.0f keys vs predicted %.0f keys\n",
			m.MeasuredIndexSize, m.PredictedIndexSize)
	}
	return b.String()
}
