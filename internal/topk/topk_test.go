package topk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fleet is an in-memory cluster for coordinator tests: one content store
// per peer, addressed "p0", "p1", …
type fleet struct {
	stores []map[uint64]uint64
	calls  map[string]int // probes per peer, local or not
	down   map[string]bool
}

func newFleet(stores ...map[uint64]uint64) *fleet {
	return &fleet{stores: stores, calls: map[string]int{}, down: map[string]bool{}}
}

func (f *fleet) members() []string {
	out := make([]string, len(f.stores))
	for i := range f.stores {
		out[i] = fmt.Sprintf("p%d", i)
	}
	return out
}

// probe answers a round of calls in order.
func (f *fleet) probe(_ context.Context, calls []Call) {
	for i := range calls {
		c := &calls[i]
		f.calls[c.Addr]++
		if f.down[c.Addr] {
			c.Err = errors.New("connection refused")
			continue
		}
		var idx int
		fmt.Sscanf(c.Addr, "p%d", &idx)
		c.Resp = Serve(c.Req, func(term uint64) (uint64, bool) {
			doc, ok := f.stores[idx][term]
			return doc, ok
		}, nil)
	}
}

// oracle drains every peer and returns the exact global top-k.
func (f *fleet) oracle(terms []uint64, weights []float64, k int) []Entry {
	cand := map[uint64]float64{}
	for i := range f.stores {
		if f.down[f.members()[i]] {
			continue
		}
		resp := Serve(Req{Terms: terms, Weights: weights, K: MaxK}, func(term uint64) (uint64, bool) {
			doc, ok := f.stores[i][term]
			return doc, ok
		}, nil)
		for _, e := range resp.Entries {
			if e.Score > cand[e.Doc] {
				cand[e.Doc] = e.Score
			}
		}
	}
	all := make([]Entry, 0, len(cand))
	for doc, sc := range cand {
		all = append(all, Entry{Doc: doc, Score: sc})
	}
	sortEntries(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestServeRankingAndWindows(t *testing.T) {
	store := map[uint64]uint64{
		1: 100, // doc 100 matches terms 1, 2, 3 → score 3
		2: 100,
		3: 100,
		4: 200, // doc 200 matches terms 4, 5 → score 2
		5: 200,
		6: 300, // doc 300 matches term 6 → score 1
	}
	lookup := func(term uint64) (uint64, bool) { doc, ok := store[term]; return doc, ok }
	terms := []uint64{1, 2, 3, 4, 5, 6}

	resp := Serve(Req{Terms: terms, K: 2}, lookup, nil)
	want := []Entry{{Doc: 100, Score: 3}, {Doc: 200, Score: 2}}
	if !reflect.DeepEqual(resp.Entries, want) {
		t.Fatalf("entries = %+v, want %+v", resp.Entries, want)
	}
	if resp.More != 1 {
		t.Fatalf("More = %v, want 1 (doc 300 unsent)", resp.More)
	}

	// The deepening window continues the same ranking.
	resp = Serve(Req{Terms: terms, K: 2, Offset: 2}, lookup, nil)
	if len(resp.Entries) != 1 || resp.Entries[0].Doc != 300 || resp.More != 0 {
		t.Fatalf("offset window = %+v More=%v, want doc 300 then drained", resp.Entries, resp.More)
	}

	// Past the end: drained, empty.
	resp = Serve(Req{Terms: terms, K: 2, Offset: 9}, lookup, nil)
	if len(resp.Entries) != 0 || resp.More != 0 {
		t.Fatalf("past-end window = %+v More=%v, want empty drained", resp.Entries, resp.More)
	}
}

func TestServeWeightsAndTies(t *testing.T) {
	store := map[uint64]uint64{1: 10, 2: 20}
	lookup := func(term uint64) (uint64, bool) { doc, ok := store[term]; return doc, ok }
	resp := Serve(Req{Terms: []uint64{1, 2}, Weights: []float64{2, 0.5}, K: 2}, lookup, nil)
	want := []Entry{{Doc: 10, Score: 2}, {Doc: 20, Score: 0.5}}
	if !reflect.DeepEqual(resp.Entries, want) {
		t.Fatalf("weighted entries = %+v, want %+v", resp.Entries, want)
	}

	// Equal scores tie-break by ascending doc.
	resp = Serve(Req{Terms: []uint64{1, 2}, K: 2}, lookup, nil)
	if resp.Entries[0].Doc != 10 || resp.Entries[1].Doc != 20 {
		t.Fatalf("tie order = %+v, want doc 10 before 20", resp.Entries)
	}
}

// overScorer violates the threshold invariant; Serve must clamp it.
type overScorer struct{}

func (overScorer) Score(term, doc uint64, weight float64) float64 { return weight * 100 }

func TestServeClampsScorer(t *testing.T) {
	lookup := func(term uint64) (uint64, bool) { return 7, true }
	resp := Serve(Req{Terms: []uint64{1}, K: 1}, lookup, overScorer{})
	if resp.Entries[0].Score != 1 {
		t.Fatalf("score = %v, want clamped to weight 1", resp.Entries[0].Score)
	}
}

// twoHotFleet builds six peers where docs 100 and 101 each match all four
// query terms at two replica peers, and the cold peers hold partial
// matches only.
func twoHotFleet() (*fleet, []uint64) {
	terms := []uint64{1, 2, 3, 4}
	full := func(doc uint64) map[uint64]uint64 {
		return map[uint64]uint64{1: doc, 2: doc, 3: doc, 4: doc}
	}
	f := newFleet(
		full(100),                         // p0
		full(100),                         // p1 (replica of p0's content)
		full(101),                         // p2
		full(101),                         // p3
		map[uint64]uint64{1: 200, 2: 200}, // p4: partial match
		map[uint64]uint64{3: 300},         // p5: partial match
	)
	return f, terms
}

func TestRunMatchesOracleAndTerminatesEarly(t *testing.T) {
	f, terms := twoHotFleet()
	// Warm plan: the hot holders are known, so the first round covers
	// exactly them.
	plan := Plan{Probes: []Probe{
		{Addr: "p0", K: 2}, {Addr: "p2", K: 2},
		{Addr: "p1", K: 1}, {Addr: "p3", K: 1}, {Addr: "p4", K: 1}, {Addr: "p5", K: 1},
	}, FirstBatch: 2}
	res := Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: plan}, f.probe, nil)

	want := f.oracle(terms, nil, 2)
	if !reflect.DeepEqual(res.Entries, want) {
		t.Fatalf("entries = %+v, want oracle %+v", res.Entries, want)
	}
	if !res.Early {
		t.Fatal("expected early termination: both full-score docs found in round 1")
	}
	if res.Legs >= len(f.stores) {
		t.Fatalf("legs = %d, want fewer than the %d-peer fan-out", res.Legs, len(f.stores))
	}
	if res.Skipped == 0 {
		t.Fatal("expected cold peers to be skipped entirely")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestRunDrainsWhenBoundNotMet(t *testing.T) {
	// No doc matches every term, so nothing reaches maxScore and the
	// protocol must visit every peer before answering.
	f := newFleet(
		map[uint64]uint64{1: 10},
		map[uint64]uint64{2: 20},
		map[uint64]uint64{3: 30},
	)
	terms := []uint64{1, 2, 3}
	res := Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: UniformPlan(f.members(), "", 2)}, f.probe, nil)
	want := f.oracle(terms, nil, 2)
	if !reflect.DeepEqual(res.Entries, want) {
		t.Fatalf("entries = %+v, want oracle %+v", res.Entries, want)
	}
	if res.Early {
		t.Fatal("nothing reaches the bound; termination must be by draining")
	}
	if res.Probed != 3 || res.Skipped != 0 {
		t.Fatalf("probed/skipped = %d/%d, want 3/0", res.Probed, res.Skipped)
	}
}

func TestRunFailsOverToReplica(t *testing.T) {
	f, terms := twoHotFleet()
	f.down["p0"] = true // the primary holder of doc 100 is dead
	res := Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: UniformPlan(f.members(), "", 2)}, f.probe, nil)
	want := f.oracle(terms, nil, 2) // oracle skips the dead peer too
	if !reflect.DeepEqual(res.Entries, want) {
		t.Fatalf("entries = %+v, want %+v despite dead primary", res.Entries, want)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	for _, e := range res.Entries {
		if e.Doc == 100 && e.Score != 4 {
			t.Fatalf("doc 100 score = %v, want 4 from replica p1", e.Score)
		}
	}
}

func TestRunDeepensExhaustedWindow(t *testing.T) {
	// One peer holds three docs; k_i = 1 forces deepening rounds until
	// the second-best doc is surfaced.
	f := newFleet(map[uint64]uint64{1: 10, 2: 10, 3: 20, 4: 30})
	terms := []uint64{1, 2, 3, 4}
	plan := Plan{Probes: []Probe{{Addr: "p0", K: 1}}, FirstBatch: 1}
	res := Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: plan}, f.probe, nil)
	want := []Entry{{Doc: 10, Score: 2}, {Doc: 20, Score: 1}}
	if !reflect.DeepEqual(res.Entries, want) {
		t.Fatalf("entries = %+v, want %+v", res.Entries, want)
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want ≥ 2 (k_i=1 must deepen)", res.Rounds)
	}
}

func TestRunLocalProbesAreFree(t *testing.T) {
	f, terms := twoHotFleet()
	plan := UniformPlan(f.members(), "p0", 2)
	res := Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: plan}, f.probe, nil)
	if res.Legs != res.Probed-1 {
		t.Fatalf("legs = %d with %d probed peers; the self-probe must not count", res.Legs, res.Probed)
	}
}

func TestRunCanceledContext(t *testing.T) {
	f, terms := twoHotFleet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, RunConfig{K: 2, Terms: terms, Plan: UniformPlan(f.members(), "", 2)}, f.probe, nil)
	if res.Legs != 0 || len(res.Entries) != 0 {
		t.Fatalf("canceled run issued %d legs, %d entries; want none", res.Legs, len(res.Entries))
	}
}

func TestRunRoundHook(t *testing.T) {
	f, terms := twoHotFleet()
	var rounds []RoundInfo
	Run(context.Background(), RunConfig{K: 2, Terms: terms, Plan: UniformPlan(f.members(), "", 2)},
		f.probe, func(ri RoundInfo) { rounds = append(rounds, ri) })
	if len(rounds) == 0 {
		t.Fatal("round hook never fired")
	}
	last := rounds[len(rounds)-1]
	if last.Candidates == 0 || math.IsInf(last.Kth, -1) {
		t.Fatalf("last round = %+v, want candidates and a finite kth", last)
	}
}

func TestPlannerLearnsHotPeers(t *testing.T) {
	p := NewPlanner(nil)
	members := []string{"pa", "pb", "pc", "pd"}
	for i := 0; i < 5; i++ {
		p.Credit("pc")
	}
	p.Credit("pd")
	plan := p.Plan(members, "", 4, 2)
	if plan.Probes[0].Addr != "pc" || plan.Probes[1].Addr != "pd" {
		t.Fatalf("probe order = %+v, want pc then pd first", plan.Probes)
	}
	if plan.Probes[0].K != 4 {
		t.Fatalf("hot k_i = %d, want full k", plan.Probes[0].K)
	}
	if cold := plan.Probes[3]; cold.K >= 4 {
		t.Fatalf("cold k_i = %d, want shallower than k", cold.K)
	}
	if plan.FirstBatch != 2 {
		t.Fatalf("first batch = %d, want the 2 hot peers", plan.FirstBatch)
	}

	// Decay lets a shifted workload's new head take over.
	for i := 0; i < 10; i++ {
		p.Decay()
	}
	for i := 0; i < 3; i++ {
		p.Credit("pa")
	}
	plan = p.Plan(members, "", 4, 2)
	if plan.Probes[0].Addr != "pa" {
		t.Fatalf("after decay+shift, probe order = %+v, want pa first", plan.Probes)
	}
}

func TestPlannerSelfFirstAndWeights(t *testing.T) {
	counts := map[uint64]uint64{7: 100}
	p := NewPlanner(func(term uint64) uint64 { return counts[term] })
	p.Credit("pb")
	plan := p.Plan([]string{"pa", "pb", "pc"}, "pc", 3, 2)
	if plan.Probes[0].Addr != "pc" || !plan.Probes[0].Local {
		t.Fatalf("probe order = %+v, want local self first", plan.Probes)
	}
	w := p.Weights([]uint64{7, 8})
	if w[0] <= w[1] {
		t.Fatalf("weights = %v, want the hot term weighted above the cold one", w)
	}
	if w[1] != 1 {
		t.Fatalf("cold term weight = %v, want 1", w[1])
	}
}

func TestUniformPlanFullFanout(t *testing.T) {
	plan := UniformPlan([]string{"a", "b", "c"}, "b", 5)
	if plan.FirstBatch != 3 {
		t.Fatalf("first batch = %d, want all 3", plan.FirstBatch)
	}
	for _, pr := range plan.Probes {
		if pr.K != 5 {
			t.Fatalf("k_i = %d, want uniform 5", pr.K)
		}
		if (pr.Addr == "b") != pr.Local {
			t.Fatalf("local flag wrong on %+v", pr)
		}
	}
}
