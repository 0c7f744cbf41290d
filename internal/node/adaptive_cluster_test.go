package node

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/model"
	"pdht/internal/transport"
	"pdht/internal/workload"
	"pdht/internal/zipf"
)

// adaptiveClusterCfg is the shared scenario of the adaptive integration
// test: enough maintenance (env = 0.5) that fMin is large enough to gate
// the Zipf tail, and a deliberately tiny static keyTtl the control plane
// must outgrow. Repl stays at 3 — with the replica-coherent refresh
// fan-out charged against every hit (WriteFanout = repl−1), a 6-peer
// cluster at repl 4 is priced out of indexing entirely (fMin = +Inf),
// which is the honest answer but not the regime this test exercises.
func adaptiveClusterCfg() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 8 * time.Millisecond
	cfg.KeyTtl = 4 // badly undersized on purpose
	cfg.Repl = 3
	cfg.Capacity = 256
	cfg.MaintainEnv = 0.5
	cfg.GossipInterval = 25 * time.Millisecond
	cfg.SuspicionTimeout = 100 * time.Millisecond
	cfg.SyncInterval = 50 * time.Millisecond
	cfg.RetuneInterval = 240 * cfg.RoundDuration // ≈1.9s windows
	return cfg
}

// driveRounds paces a Zipf workload at one query per node per round for the
// given number of rounds, applying any scheduled popularity shifts, and
// returns (queries, index hits, total messages). round numbering continues
// across calls via *round. The pace is read off node 0's own round clock —
// the one its tuner divides by — and a driver that fell behind runs its
// overdue passes back to back instead of dropping them (as a time.Ticker
// would), so a busy host delays queries but does not thin the rate.
func driveRounds(t *testing.T, c *Cluster, sampler *zipf.Sampler, corpus []uint64,
	shifts workload.Schedule, round *int, rounds int) (q, hits, msgs int) {
	t.Helper()
	clock := c.Node(0)
	start := clock.now()
	for i := 0; i < rounds; i++ {
		for clock.now() < start+i {
			time.Sleep(clock.cfg.RoundDuration / 4)
		}
		shifts.Apply(*round, sampler)
		for n := 0; n < c.Size(); n++ {
			res := mustQuery(t, c.Node(n), corpus[sampler.Sample()])
			if !res.Answered {
				t.Fatalf("round %d: query from node %d unanswered", *round, n)
			}
			q++
			if res.FromIndex {
				hits++
			}
			msgs += res.Total()
		}
		*round++
	}
	return q, hits, msgs
}

// TestAdaptiveClusterShiftRecovery is the acceptance test of the control
// plane: a 6-node adaptive cluster under a mid-run Zipf popularity shuffle
//
//   - converges its tuned keyTtl to within 25% of SolveTTL's recommendation
//     (keyTtl = 1/fMin) for the post-shift workload,
//   - recovers its hit rate within a bounded number of retune periods,
//   - measurably gates below-fMin keys while sketch memory stays bounded,
//   - and beats a static-KeyTtl run of the same workload on messages/query.
func TestAdaptiveClusterShiftRecovery(t *testing.T) {
	const (
		nodes       = 6
		keys        = 150
		alpha       = 1.2
		preRounds   = 520 // ≈2 retune windows before the shift
		postRounds  = 760 // ≈3 retune windows after it
		measureTail = 180 // hit-rate measurement window, in rounds
	)
	corpus := make([]uint64, keys)
	for i := range corpus {
		corpus[i] = uint64(keyspace.HashString("adaptive:" + strconv.Itoa(i)))
	}
	dist, err := zipf.New(alpha, keys)
	if err != nil {
		t.Fatal(err)
	}
	shifts := workload.Schedule{{Round: preRounds, Kind: workload.ShiftShuffle}}

	// rate is the queries per node per round the phase was actually driven
	// at, on node 0's round clock — what the tuners saw.
	type phase struct{ hitRate, msgsPerQuery, rate float64 }
	runCluster := func(adaptive bool) (pre, post phase, rep Report, gated uint64) {
		cfg := adaptiveClusterCfg()
		cfg.Adaptive = adaptive
		c, err := NewCluster(transport.NewMemory(), nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.WaitConverged(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		c.PublishReplicated(corpus, 3)
		// Identical sampler and schedule for both runs: the A/B differs
		// only in the policy.
		sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(11, 13)))
		round := 0
		var totQ, totMsgs int
		q, h, m := driveRounds(t, c, sampler, corpus, shifts, &round, preRounds-measureTail)
		totQ, totMsgs = totQ+q, totMsgs+m
		q, h, m = driveRounds(t, c, sampler, corpus, shifts, &round, measureTail)
		totQ, totMsgs = totQ+q, totMsgs+m
		pre = phase{hitRate: float64(h) / float64(q), msgsPerQuery: float64(m) / float64(q)}
		// The shift fires on the first round of the next drive.
		preQ, shiftedAt := totQ, c.Node(0).now()
		q, h, m = driveRounds(t, c, sampler, corpus, shifts, &round, postRounds-measureTail)
		totQ, totMsgs = totQ+q, totMsgs+m
		q, h, m = driveRounds(t, c, sampler, corpus, shifts, &round, measureTail)
		totQ, totMsgs = totQ+q, totMsgs+m
		post = phase{
			hitRate:      float64(h) / float64(q),
			msgsPerQuery: float64(totMsgs) / float64(totQ),
			rate:         float64(totQ-preQ) / nodes / float64(c.Node(0).now()-shiftedAt),
		}
		for i := 0; i < nodes; i++ {
			r := c.Node(i).Report()
			if r.Adaptive != nil {
				gated += r.Adaptive.GatedInserts
			}
		}
		return pre, post, c.Node(0).Report(), gated
	}

	preA, postA, repA, gatedA := runCluster(true)
	if repA.Adaptive == nil {
		t.Fatal("adaptive cluster reports no control-plane state")
	}
	if repA.Adaptive.Retunes < 2 {
		t.Fatalf("node 0 retuned %d times, want at least 2", repA.Adaptive.Retunes)
	}

	// (1) TTL convergence: the tuned keyTtl must land within 25% of the
	// model's recommendation for the *post-shift* workload, computed here
	// from the true scenario parameters (the shuffle permutes key ranks
	// but preserves the exponent and universe) and the query rate the
	// post-shift drive achieved — the band tests the tuner, not how many
	// ticks the scheduler let the driver keep.
	cfg := adaptiveClusterCfg()
	p := model.Params{
		NumPeers: nodes, Keys: keys, Stor: cfg.Capacity, Repl: cfg.Repl,
		Alpha: alpha, FQry: postA.rate,
		Env: cfg.MaintainEnv, Dup: 1.8, Dup2: 1.8,
		// The nodes fan the reset-on-hit refresh out to the replica set,
		// and the tuner charges for it; the reference model must too.
		WriteFanout: float64(cfg.Repl - 1),
	}
	sol, err := model.Solve(p, dist)
	if err != nil {
		t.Fatal(err)
	}
	want := model.IdealKeyTtl(sol)
	if want < 1 {
		t.Fatalf("scenario mis-sized: model recommends keyTtl %v", want)
	}
	got := float64(repA.Adaptive.KeyTtl)
	t.Logf("tuned keyTtl %v vs SolveTTL recommendation %.1f at the driven %.3f queries/node/round (fMin %.4g, fitted α %.2f, fQry %.3f, distinct %d)",
		got, want, postA.rate, repA.Adaptive.Tuner.Last.FMin, repA.Adaptive.Tuner.Last.Alpha, repA.Adaptive.Tuner.Last.FQry, repA.Adaptive.Tuner.Last.DistinctKeys)
	if rel := math.Abs(got-want) / want; rel > 0.25 {
		t.Fatalf("tuned keyTtl %v is %.0f%% off the post-shift recommendation %.1f", got, 100*rel, want)
	}

	// (2) Hit-rate recovery within the bounded post-shift drive (three
	// retune periods): the final measurement window must be back to at
	// least 70% of the pre-shift operating point.
	t.Logf("hit rate: pre-shift %.3f → post-shift %.3f", preA.hitRate, postA.hitRate)
	if postA.hitRate < 0.7*preA.hitRate {
		t.Fatalf("post-shift hit rate %.3f did not recover to 70%% of pre-shift %.3f within 3 retune periods",
			postA.hitRate, preA.hitRate)
	}

	// (3) The fMin gate fired, and sketch memory stays bounded.
	if gatedA == 0 {
		t.Fatal("no insert was gated anywhere in the cluster")
	}
	if mem := repA.Adaptive.Tuner.MemoryBytes; mem <= 0 || mem > 1<<21 {
		t.Fatalf("per-node sketch memory %d bytes outside the bounded range", mem)
	}

	// (4) The A/B: the same workload under the static KeyTtl must cost
	// more messages per query than the adaptive run paid.
	_, postS, _, _ := runCluster(false)
	t.Logf("messages per query over the full run: adaptive %.2f vs static %.2f (gated %d)",
		postA.msgsPerQuery, postS.msgsPerQuery, gatedA)
	if postA.msgsPerQuery >= postS.msgsPerQuery {
		t.Fatalf("adaptive paid %.2f msgs/query, static %.2f — the control plane does not pay for itself",
			postA.msgsPerQuery, postS.msgsPerQuery)
	}
}
