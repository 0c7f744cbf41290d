package sim

import (
	"context"
	"fmt"
	"math/rand/v2"

	"pdht/internal/netsim"
	"pdht/internal/stats"
	"pdht/internal/topk"
	"pdht/internal/workload"
	"pdht/internal/zipf"
)

// topkSim is StrategyPartialTopK's query plane: the real threshold-
// algorithm coordinator (topk.Run) over the simulated population. Content
// follows a group/copies model — every copy document of a term-group
// matches all of the group's terms and lives at a distinct peer — so the
// exact top-k answer of a query is known in closed form (min(k, copies)
// documents at the full score) and every resolved query can be checked
// against that oracle.
//
// Like the run loop's single adaptTuner, one shared Planner stands in for
// every peer running the same control loop over its share of the stream;
// TopKUniform replaces it with the full-fan-out UniformPlan baseline.
type topkSim struct {
	cfg    Config
	net    *netsim.Network
	addrs  []string
	byAddr map[string]netsim.PeerID
	// stores holds each peer's term→doc content, immutable after
	// construction.
	stores  []map[uint64]uint64
	planner *topk.Planner     // nil under TopKUniform
	counts  map[uint64]uint64 // exact term counts, the count-min stand-in
	queries *workload.TopKGen

	// Measurement-window accumulators the run loop drains into Result.
	mQueries, mLegs, mEarly int
}

// topkTermID maps (group, slot) onto the disjoint term-key universe.
func (t *topkSim) topkTermID(group, slot int) uint64 {
	return uint64(group*t.cfg.TopKGroupSize+slot) + 1
}

// topkDocID names the copy-th replica document of a group. Copies carry
// distinct IDs — they are distinct documents with identical term sets, so
// the oracle's top-k has min(k, copies) members, which keeps early
// termination reachable whenever k ≤ copies.
func (t *topkSim) topkDocID(group, copy int) uint64 {
	return uint64(group*t.cfg.TopKCopies+copy) + 1
}

// newTopKSim places the group/copies corpus and wires the workload and
// planner.
func newTopKSim(cfg Config, net *netsim.Network, rng *rand.Rand) (*topkSim, error) {
	t := &topkSim{
		cfg:    cfg,
		net:    net,
		addrs:  make([]string, cfg.Peers),
		byAddr: make(map[string]netsim.PeerID, cfg.Peers),
		stores: make([]map[uint64]uint64, cfg.Peers),
	}
	for i := range t.addrs {
		t.addrs[i] = fmt.Sprintf("peer:%d", i)
		t.byAddr[t.addrs[i]] = netsim.PeerID(i)
	}
	for g := 0; g < cfg.TopKGroups; g++ {
		for c, p := range rng.Perm(cfg.Peers)[:cfg.TopKCopies] {
			if t.stores[p] == nil {
				t.stores[p] = make(map[uint64]uint64)
			}
			for s := 0; s < cfg.TopKGroupSize; s++ {
				t.stores[p][t.topkTermID(g, s)] = t.topkDocID(g, c)
			}
		}
	}

	sampler := zipf.NewSampler(zipf.MustNew(cfg.Alpha, cfg.TopKGroups),
		rand.New(rand.NewPCG(cfg.Seed^0x7777, cfg.Seed^0x8888)))
	var err error
	t.queries, err = workload.NewTopKGen(sampler, cfg.Peers, cfg.FQry,
		cfg.TopKTerms, cfg.TopKGroupSize,
		rand.New(rand.NewPCG(cfg.Seed^0x9999, cfg.Seed^0xaaaa)))
	if err != nil {
		return nil, err
	}
	if !cfg.TopKUniform {
		t.counts = make(map[uint64]uint64)
		t.planner = topk.NewPlanner(func(term uint64) uint64 { return t.counts[term] })
	}
	return t, nil
}

// answer coordinates one top-k query with the real round protocol and
// checks the result against the closed-form oracle. Wire legs land on the
// network's MsgTopK counter; window accumulators move when measuring.
func (t *topkSim) answer(q workload.TopKQuery, measuring bool) (exact bool) {
	terms := make([]uint64, len(q.Slots))
	for i, s := range q.Slots {
		terms[i] = t.topkTermID(q.Group, s)
	}
	var weights []float64
	if t.planner != nil {
		// Observe before planning, exactly as the node coordinator feeds
		// its sketch: the query's own terms already weigh into its plan.
		for _, term := range terms {
			t.counts[term]++
		}
		weights = t.planner.Weights(terms)
	}

	self := t.addrs[q.Origin]
	var plan topk.Plan
	if t.planner != nil {
		plan = t.planner.Plan(t.addrs, self, t.cfg.TopKK, t.cfg.TopKCopies)
	} else {
		plan = topk.UniformPlan(t.addrs, self, t.cfg.TopKK)
	}

	answerRound := func(_ context.Context, calls []topk.Call) {
		for i := range calls {
			c := &calls[i]
			p := t.byAddr[c.Addr]
			if !t.net.Online(p) {
				c.Err = fmt.Errorf("sim: peer %s offline", c.Addr)
				continue
			}
			st := t.stores[p]
			c.Resp = topk.Serve(c.Req, func(term uint64) (uint64, bool) {
				doc, ok := st[term]
				return doc, ok
			}, nil)
		}
	}

	res := topk.Run(context.Background(), topk.RunConfig{
		K:       t.cfg.TopKK,
		Terms:   terms,
		Weights: weights,
		Plan:    plan,
	}, answerRound, nil)

	t.net.Send(stats.MsgTopK, int64(res.Legs))
	if t.planner != nil {
		for _, addr := range res.Sources {
			t.planner.Credit(addr)
		}
	}
	if measuring {
		t.mQueries++
		t.mLegs += res.Legs
		if res.Early {
			t.mEarly++
		}
	}

	// The oracle: min(k, copies) copy documents of the group, each at the
	// full score (every copy matches every query term).
	full := 0.0
	if weights == nil {
		full = float64(len(terms))
	} else {
		for _, w := range weights {
			full += w
		}
	}
	want := t.cfg.TopKK
	if t.cfg.TopKCopies < want {
		want = t.cfg.TopKCopies
	}
	if len(res.Entries) != want {
		return false
	}
	for _, e := range res.Entries {
		if e.Score != full {
			return false
		}
	}
	return true
}
