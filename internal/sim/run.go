package sim

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/adapt"
	"pdht/internal/churn"
	"pdht/internal/core"
	"pdht/internal/dht"
	"pdht/internal/keyspace"
	"pdht/internal/model"
	"pdht/internal/netsim"
	"pdht/internal/overlay"
	"pdht/internal/sim/simcore"
	"pdht/internal/stats"
	"pdht/internal/workload"
	"pdht/internal/zipf"
)

// overlayBroadcaster adapts the unstructured overlay to simcore.Broadcaster.
type overlayBroadcaster struct {
	graph *overlay.Graph
	store *overlay.Store
	byKey map[keyspace.Key]int
	cfg   overlay.SearchConfig
	repl  int
}

func (b *overlayBroadcaster) Search(from netsim.PeerID, key keyspace.Key, rng *rand.Rand) (core.Value, bool, int) {
	found, msgs := b.graph.Search(from, b.cfg, b.repl, b.store.OnlineHolderMatch(key), rng)
	if !found {
		return 0, false, msgs
	}
	return core.Value(b.byKey[key]), true, msgs
}

// run holds the wired-up state of one simulation.
type run struct {
	cfg     Config
	net     *netsim.Network
	rng     *rand.Rand
	keys    []keyspace.Key
	bc      *overlayBroadcaster
	churn   *churn.Process
	queries *workload.QueryGen
	updates *workload.UpdateGen

	// Index-bearing strategies.
	index *simcore.PartialIndex
	pdht  *simcore.PDHT
	// The adaptive control plane (StrategyPartialAdaptive): one tuner
	// observing the whole population's stream, as if every peer ran the
	// same control loop over its share.
	adaptTuner   *adapt.Tuner
	gatedInserts int
	// The distributed top-k plane (StrategyPartialTopK).
	topk *topkSim
	// Oracle knowledge for StrategyPartialIdeal: ranks 1..maxRank are
	// indexed. Under the identity rank→key mapping that is key < maxRank.
	maxRank int

	keyTtl      int
	activePeers int
	modelMsg    float64

	hops          stats.Welford
	routeFailures int
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	r, err := setup(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.loop()
}

func setup(cfg Config) (*run, error) {
	p := cfg.ModelParams()
	r := &run{
		cfg: cfg,
		net: netsim.New(cfg.Peers),
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}

	// Key universe: index i ↔ popularity rank i+1 under the identity
	// mapping.
	r.keys = make([]keyspace.Key, cfg.Keys)
	for i := range r.keys {
		r.keys[i] = keyspace.HashString(fmt.Sprintf("key:%d", i))
	}
	byKey := make(map[keyspace.Key]int, cfg.Keys)
	for i, k := range r.keys {
		byKey[k] = i
	}

	// Unstructured overlay with randomly replicated content.
	graph, err := overlay.NewRandomGraph(r.net, overlayDegree, r.rng)
	if err != nil {
		return nil, err
	}
	store := overlay.NewStore(r.net)
	for _, key := range r.keys {
		if _, err := store.ReplicateRandom(key, cfg.Repl, r.rng); err != nil {
			return nil, err
		}
	}
	r.bc = &overlayBroadcaster{
		graph: graph,
		store: store,
		byKey: byKey,
		cfg:   overlay.SearchConfig{Walkers: walkers, FloodTTL: 64},
		repl:  cfg.Repl,
	}

	// Workload.
	sampler := zipf.NewSampler(zipf.MustNew(cfg.Alpha, cfg.Keys),
		rand.New(rand.NewPCG(cfg.Seed^0xabcd, cfg.Seed^0xef01)))
	r.queries, err = workload.NewQueryGen(sampler, cfg.Peers, cfg.FQry,
		rand.New(rand.NewPCG(cfg.Seed^0x1111, cfg.Seed^0x2222)))
	if err != nil {
		return nil, err
	}
	r.updates, err = workload.NewUpdateGen(cfg.Keys, cfg.FUpd,
		rand.New(rand.NewPCG(cfg.Seed^0x3333, cfg.Seed^0x4444)))
	if err != nil {
		return nil, err
	}

	// Analytical solution: sizes the DHT, derives keyTtl, and supplies
	// the prediction column.
	dist := zipf.MustNew(cfg.Alpha, cfg.Keys)
	sol, err := model.Solve(p, dist)
	if err != nil {
		return nil, err
	}
	r.maxRank = sol.MaxRank

	switch cfg.Strategy {
	case StrategyNoIndex:
		r.modelMsg = model.NoIndexCost(p)
		// No DHT at all.
	case StrategyIndexAll:
		r.modelMsg = model.IndexAllCost(p)
		r.activePeers = numActiveFor(p, float64(cfg.Keys))
		if err := r.buildIndex(simcore.IndexConfig{
			KeyTtl:       0,
			PeerCapacity: cfg.Stor,
		}); err != nil {
			return nil, err
		}
		for i, key := range r.keys {
			if err := r.index.Seed(key, core.Value(i)); err != nil {
				return nil, err
			}
		}
	case StrategyPartialIdeal:
		r.modelMsg = model.PartialCost(sol)
		r.activePeers = numActiveFor(p, float64(max(sol.MaxRank, 1)))
		if err := r.buildIndex(simcore.IndexConfig{
			KeyTtl:       0,
			PeerCapacity: cfg.Stor,
		}); err != nil {
			return nil, err
		}
		for i := 0; i < sol.MaxRank && i < len(r.keys); i++ {
			if err := r.index.Seed(r.keys[i], core.Value(i)); err != nil {
				return nil, err
			}
		}
	case StrategyPartialTTL, StrategyPartialAdaptive:
		r.keyTtl = cfg.KeyTtl
		if r.keyTtl == 0 {
			if cfg.Strategy == StrategyPartialAdaptive {
				// A deployment without the analytical model
				// starts from a coarse guess (ten minutes) and
				// lets its control loop correct it.
				r.keyTtl = 600
			} else {
				ideal := model.IdealKeyTtl(sol)
				if ideal < 1 {
					ideal = 1
				}
				r.keyTtl = int(ideal)
			}
		}
		if cfg.Strategy == StrategyPartialAdaptive {
			r.adaptTuner, err = adapt.NewTuner(adapt.Config{})
			if err != nil {
				return nil, err
			}
		}
		// The prediction column and DHT sizing: partialTTL at the TTL it
		// runs with; partialAdaptive at the model-ideal TTL its control
		// loop should converge to (unless an explicit KeyTtl pins it).
		refTtl := float64(r.keyTtl)
		if cfg.Strategy == StrategyPartialAdaptive && cfg.KeyTtl == 0 {
			if ideal := model.IdealKeyTtl(sol); ideal >= 1 {
				refTtl = ideal
			}
		}
		ttlSol, err := model.SolveTTL(p, dist, refTtl)
		if err != nil {
			return nil, err
		}
		r.modelMsg = ttlSol.Cost
		r.activePeers = numActiveFor(p, ttlSol.IndexSize)
		if err := r.buildIndex(simcore.IndexConfig{
			KeyTtl:        r.keyTtl,
			PeerCapacity:  cfg.Stor,
			FloodOnMiss:   true,
			ResetTTLOnHit: true,
		}); err != nil {
			return nil, err
		}
		r.pdht = simcore.NewPDHT(r.index, r.bc, r.rng)
		if t := r.adaptTuner; t != nil {
			r.pdht.SetInsertGate(func(k keyspace.Key) bool { return t.ShouldIndex(uint64(k)) })
		}
	case StrategyPartialTopK:
		// No index and no analytical counterpart: the top-k plane is the
		// reproduction's extension beyond the paper's point queries, so
		// the prediction column stays empty and cost is measured only.
		r.topk, err = newTopKSim(cfg, r.net,
			rand.New(rand.NewPCG(cfg.Seed^0xbbbb, cfg.Seed^0xcccc)))
		if err != nil {
			return nil, err
		}
	}

	// Churn last, so that construction sees the full population; the
	// process starts in its stationary distribution.
	if cfg.Churn.MeanOnline != 0 || cfg.Churn.MeanOffline != 0 {
		r.churn, err = churn.NewProcess(r.net, cfg.Churn,
			rand.New(rand.NewPCG(cfg.Seed^0x5555, cfg.Seed^0x6666)))
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildIndex provisions the trie DHT over the first activePeers peers and
// the partial-index layer above it.
func (r *run) buildIndex(icfg simcore.IndexConfig) error {
	active := make([]netsim.PeerID, r.activePeers)
	for i := range active {
		active[i] = netsim.PeerID(i)
	}
	trie, err := dht.NewTrie(r.net, active, dht.TrieConfig{
		GroupSize:  r.cfg.Repl,
		Redundancy: trieRedundancy,
		Env:        r.cfg.Env,
	}, r.rng)
	if err != nil {
		return err
	}
	r.index, err = simcore.NewPartialIndex(r.net, trie, icfg, r.rng)
	return err
}

// tunePeriod is the interval in rounds at which StrategyPartialAdaptive
// retunes and StrategyPartialTopK's planner decays its yield history.
const tunePeriod = 50

// loop drives the rounds and collects measurements.
func (r *run) loop() (Result, error) {
	cfg := r.cfg
	res := Result{
		Config:           cfg,
		KeyTtlUsed:       r.keyTtl,
		ActivePeers:      r.activePeers,
		ModelMsgPerRound: r.modelMsg,
	}
	if cfg.CollectKeyCounts {
		res.KeyQueryCounts = make([]int, cfg.Keys)
	}
	var (
		qbuf        []workload.Query
		tqbuf       []workload.TopKQuery
		ubuf        []workload.Update
		baseline    map[stats.MsgClass]int64
		sizeSamples int
		sizeSum     float64

		// Per-trace-window accumulators.
		winStart   map[stats.MsgClass]int64
		winQueries int
		winHits    int
		winAns     int
	)
	if cfg.TraceEvery > 0 {
		winStart = r.net.Counters().Snapshot()
	}
	total := cfg.WarmupRounds + cfg.Rounds
	for round := 0; round < total; round++ {
		if round > 0 {
			r.net.AdvanceRound()
		}
		if r.churn != nil {
			r.churn.Step()
		}
		if r.topk != nil {
			cfg.Shifts.Apply(r.net.Round(), r.topk.queries.Sampler())
		} else {
			cfg.Shifts.Apply(r.net.Round(), r.queries.Sampler())
		}
		measuring := round >= cfg.WarmupRounds
		if round == cfg.WarmupRounds {
			baseline = r.net.Counters().Snapshot()
		}

		if r.index != nil {
			r.index.Maintain()
			if r.adaptTuner != nil && round > 0 && round%tunePeriod == 0 {
				in := adapt.Inputs{
					Members:      cfg.Peers,
					Observers:    cfg.Peers,
					Capacity:     cfg.Stor,
					Repl:         cfg.Repl,
					Env:          cfg.Env,
					WindowRounds: tunePeriod,
				}
				if d, err := r.adaptTuner.Retune(in); err == nil {
					r.keyTtl = d.KeyTtl
					r.index.SetKeyTtl(d.KeyTtl)
				}
			}
		}

		// Proactive updates: only the always-consistent strategies pay
		// them (§5.1 drops cUpd under TTL selection, with or without
		// the adaptive control plane).
		if r.index != nil && cfg.Strategy != StrategyPartialTTL && cfg.Strategy != StrategyPartialAdaptive {
			ubuf = r.updates.Round(ubuf)
			for _, u := range ubuf {
				if cfg.Strategy == StrategyPartialIdeal && u.Key >= r.maxRank {
					continue // not indexed, nothing to update
				}
				origin, ok := r.net.RandomOnline(r.rng)
				if !ok {
					continue
				}
				r.index.Update(origin, r.keys[u.Key], core.Value(u.Key))
			}
		}

		if r.topk != nil {
			// The planner's yield history decays on the same window
			// rotation the adaptive tuner uses, so shifted workloads'
			// new hot peers overtake the old.
			if r.topk.planner != nil && round > 0 && round%tunePeriod == 0 {
				r.topk.planner.Decay()
			}
			tqbuf = r.topk.queries.Round(tqbuf)
			for _, q := range tqbuf {
				if !r.net.Online(q.Origin) {
					continue // offline peers don't query
				}
				exact := r.topk.answer(q, measuring)
				winQueries++
				if exact {
					winAns++
				}
				if measuring {
					res.Queries++
					if exact {
						res.Answered++
					}
				}
			}
		} else {
			qbuf = r.queries.Round(qbuf)
			for _, q := range qbuf {
				if !r.net.Online(q.Origin) {
					continue // offline peers don't query
				}
				answered, fromIndex := r.answer(q)
				winQueries++
				if answered {
					winAns++
				}
				if fromIndex {
					winHits++
				}
				if measuring {
					if res.KeyQueryCounts != nil {
						res.KeyQueryCounts[q.Key]++
					}
					res.Queries++
					if answered {
						res.Answered++
					}
					if fromIndex {
						res.HitRate++ // running count; normalized below
					}
				}
			}
		}

		if measuring && r.index != nil && (round-cfg.WarmupRounds)%10 == 0 {
			sizeSum += float64(r.index.IndexedKeys())
			sizeSamples++
		}

		if cfg.TraceEvery > 0 && (round+1)%cfg.TraceEvery == 0 {
			snap := r.net.Counters().Snapshot()
			var winMsgs int64
			for _, n := range stats.Diff(snap, winStart) {
				winMsgs += n
			}
			tp := TracePoint{
				Round:       r.net.Round(),
				MsgPerRound: float64(winMsgs) / float64(cfg.TraceEvery),
			}
			if r.index != nil {
				tp.IndexedKeys = r.index.IndexedKeys()
			}
			if winQueries > 0 {
				tp.HitRate = float64(winHits) / float64(winQueries)
				tp.AnswerRate = float64(winAns) / float64(winQueries)
			}
			res.Trace = append(res.Trace, tp)
			winStart = snap
			winQueries, winHits, winAns = 0, 0, 0
		}
	}

	res.MeasuredRounds = cfg.Rounds
	res.KeyTtlUsed = r.keyTtl // final value, after any retuning
	final := r.net.Counters().Snapshot()
	delta := stats.Diff(final, baseline)
	res.ByClass = make(map[stats.MsgClass]float64, len(delta))
	var totalMsgs int64
	for c, n := range delta {
		res.ByClass[c] = float64(n) / float64(cfg.Rounds)
		totalMsgs += n
	}
	res.MsgPerRound = float64(totalMsgs) / float64(cfg.Rounds)
	if res.Queries > 0 {
		res.HitRate /= float64(res.Queries)
	}
	if sizeSamples > 0 {
		res.MeanIndexedKeys = sizeSum / float64(sizeSamples)
	} else if cfg.Strategy == StrategyIndexAll {
		res.MeanIndexedKeys = float64(cfg.Keys)
	} else if cfg.Strategy == StrategyPartialIdeal {
		res.MeanIndexedKeys = float64(r.maxRank)
	}
	res.MeanLookupHops = r.hops.Mean()
	res.RouteFailures = r.routeFailures
	res.GatedInserts = r.gatedInserts
	if r.adaptTuner != nil {
		res.Tuner = r.adaptTuner.Snapshot()
	}
	if r.topk != nil && r.topk.mQueries > 0 {
		res.TopKLegsPerQuery = float64(r.topk.mLegs) / float64(r.topk.mQueries)
		res.TopKEarlyRate = float64(r.topk.mEarly) / float64(r.topk.mQueries)
	}
	return res, nil
}

// answer resolves one query under the configured strategy.
func (r *run) answer(q workload.Query) (answered, fromIndex bool) {
	key := r.keys[q.Key]
	switch r.cfg.Strategy {
	case StrategyNoIndex:
		_, found, _ := r.bc.Search(q.Origin, key, r.rng)
		return found, false
	case StrategyIndexAll:
		lr := r.index.Lookup(q.Origin, key)
		r.noteRoute(lr.RouteHops, lr.RouteOK)
		return lr.Hit, lr.Hit
	case StrategyPartialIdeal:
		// The oracle: peers know whether the key's current rank is
		// indexed. Under identity mapping rank = key index + 1.
		if q.Rank <= r.maxRank {
			lr := r.index.Lookup(q.Origin, key)
			r.noteRoute(lr.RouteHops, lr.RouteOK)
			if lr.Hit {
				return true, true
			}
			// Churn can hide all replicas of an indexed key; the
			// peer falls back to broadcast like eq. 13's miss
			// path.
			_, found, _ := r.bc.Search(q.Origin, key, r.rng)
			return found, false
		}
		_, found, _ := r.bc.Search(q.Origin, key, r.rng)
		return found, false
	case StrategyPartialTTL, StrategyPartialAdaptive:
		if r.adaptTuner != nil {
			r.adaptTuner.Observe(uint64(key))
		}
		out := r.pdht.Query(q.Origin, key)
		r.noteRoute(out.RouteHops, out.RouteOK)
		if out.InsertGated {
			r.gatedInserts++
		}
		return out.Answered, out.FromIndex
	default:
		return false, false
	}
}

// noteRoute records one index lookup's routing cost and outcome.
func (r *run) noteRoute(hops int, ok bool) {
	r.hops.Observe(float64(hops))
	if !ok {
		r.routeFailures++
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
