package sim

import (
	"math"
	"testing"

	"pdht/internal/churn"
	"pdht/internal/stats"
	"pdht/internal/workload"
)

// quickConfig returns a fast test configuration (seconds for the whole
// file) that keeps the Table 1 proportions.
func quickConfig(s Strategy) Config {
	cfg := DefaultConfig()
	cfg.Strategy = s
	cfg.Peers = 1000
	cfg.Keys = 2000
	cfg.Repl = 10
	cfg.Rounds = 120
	cfg.WarmupRounds = 40
	return cfg
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Strategy = Strategy(99) },
		func(c *Config) { c.Peers = 0 },
		func(c *Config) { c.Peers, c.Repl = overlayDegree, 2 }, // too few peers for the overlay graph
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.WarmupRounds = -1 },
		func(c *Config) { c.KeyTtl = -5 },
		func(c *Config) { c.TraceEvery = -1 },
		func(c *Config) { c.Churn = churn.Model{MeanOnline: -1, MeanOffline: 5} },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyNoIndex:      "noIndex",
		StrategyIndexAll:     "indexAll",
		StrategyPartialIdeal: "partial",
		StrategyPartialTTL:   "partialTTL",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = -1
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted invalid config")
	}
}

func TestAllStrategiesAnswerEverythingWithoutChurn(t *testing.T) {
	for _, s := range []Strategy{StrategyNoIndex, StrategyIndexAll, StrategyPartialIdeal, StrategyPartialTTL} {
		res, err := Run(quickConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Queries == 0 {
			t.Fatalf("%v: no queries measured", s)
		}
		if res.Answered != res.Queries {
			t.Errorf("%v: answered %d of %d queries in a static network",
				s, res.Answered, res.Queries)
		}
	}
}

func TestStrategyCostOrderingMatchesFig1(t *testing.T) {
	// At the busy frequency (1/30), Fig. 1's ordering is
	// partial < indexAll < noIndex, and the TTL algorithm sits between
	// ideal partial and noIndex.
	costs := make(map[Strategy]float64)
	for _, s := range []Strategy{StrategyNoIndex, StrategyIndexAll, StrategyPartialIdeal, StrategyPartialTTL} {
		res, err := Run(quickConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		costs[s] = res.MsgPerRound
	}
	if costs[StrategyPartialIdeal] > costs[StrategyIndexAll]*1.1 {
		t.Errorf("ideal partial (%v) should not exceed indexAll (%v)",
			costs[StrategyPartialIdeal], costs[StrategyIndexAll])
	}
	if costs[StrategyIndexAll] >= costs[StrategyNoIndex] {
		t.Errorf("at 1/30 indexAll (%v) must beat noIndex (%v)",
			costs[StrategyIndexAll], costs[StrategyNoIndex])
	}
	if costs[StrategyPartialTTL] >= costs[StrategyNoIndex] {
		t.Errorf("TTL selection (%v) must beat noIndex (%v)",
			costs[StrategyPartialTTL], costs[StrategyNoIndex])
	}
}

func TestMeasurementsTrackModelWithinBand(t *testing.T) {
	// The simulator and the analytical model must agree on the order of
	// magnitude — the V1 validation experiment. The walk-based search
	// duplicates more than the model's dup = 1.8, and the trie
	// over-provisions active peers, so the band is generous.
	for _, s := range []Strategy{StrategyNoIndex, StrategyIndexAll, StrategyPartialIdeal, StrategyPartialTTL} {
		res, err := Run(quickConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.MsgPerRound / res.ModelMsgPerRound
		if ratio < 0.4 || ratio > 3 {
			t.Errorf("%v: measured %v vs model %v (ratio %.2f) outside [0.4, 3]",
				s, res.MsgPerRound, res.ModelMsgPerRound, ratio)
		}
	}
}

func TestHitRateSemantics(t *testing.T) {
	noIdx, err := Run(quickConfig(StrategyNoIndex))
	if err != nil {
		t.Fatal(err)
	}
	if noIdx.HitRate != 0 {
		t.Errorf("noIndex hit rate = %v, want 0", noIdx.HitRate)
	}
	all, err := Run(quickConfig(StrategyIndexAll))
	if err != nil {
		t.Fatal(err)
	}
	if all.HitRate < 0.999 {
		t.Errorf("indexAll hit rate = %v, want 1", all.HitRate)
	}
	ttl, err := Run(quickConfig(StrategyPartialTTL))
	if err != nil {
		t.Fatal(err)
	}
	// The measured pIndxd must be high (Zipf head) but below 1 (cold
	// keys miss at least once).
	if ttl.HitRate < 0.6 || ttl.HitRate >= 1 {
		t.Errorf("TTL hit rate = %v, want in [0.6, 1)", ttl.HitRate)
	}
}

func TestTTLIndexSmallerThanFullIndex(t *testing.T) {
	ttl, err := Run(quickConfig(StrategyPartialTTL))
	if err != nil {
		t.Fatal(err)
	}
	if ttl.MeanIndexedKeys <= 0 {
		t.Fatal("TTL index never held anything")
	}
	if ttl.MeanIndexedKeys >= float64(ttl.Config.Keys) {
		t.Errorf("TTL index holds %v of %d keys — nothing expired",
			ttl.MeanIndexedKeys, ttl.Config.Keys)
	}
	if ttl.KeyTtlUsed <= 0 {
		t.Error("derived keyTtl not recorded")
	}
	if f := ttl.IndexFraction(); f <= 0 || f >= 1 {
		t.Errorf("IndexFraction = %v", f)
	}
}

func TestIndexShrinksAtLowerQueryRates(t *testing.T) {
	// Fig. 3's headline, measured: fewer queries → smaller TTL index.
	busy := quickConfig(StrategyPartialTTL)
	calm := quickConfig(StrategyPartialTTL)
	calm.FQry = 1.0 / 600.0
	calm.Rounds = 400 // calm traffic needs a longer window to stabilize
	busyRes, err := Run(busy)
	if err != nil {
		t.Fatal(err)
	}
	calmRes, err := Run(calm)
	if err != nil {
		t.Fatal(err)
	}
	if calmRes.MeanIndexedKeys >= busyRes.MeanIndexedKeys {
		t.Errorf("index: calm %v not below busy %v",
			calmRes.MeanIndexedKeys, busyRes.MeanIndexedKeys)
	}
}

func TestRunWithChurnStillAnswers(t *testing.T) {
	cfg := quickConfig(StrategyPartialTTL)
	cfg.Churn = churn.Model{MeanOnline: 600, MeanOffline: 200}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries under churn")
	}
	rate := float64(res.Answered) / float64(res.Queries)
	if rate < 0.95 {
		t.Errorf("answer rate under churn = %v, want ≥ 0.95", rate)
	}
	if res.ByClass[stats.MsgMaintenance] <= 0 {
		t.Error("no maintenance traffic under churn")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(quickConfig(StrategyPartialTTL))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(StrategyPartialTTL))
	if err != nil {
		t.Fatal(err)
	}
	if a.MsgPerRound != b.MsgPerRound || a.Queries != b.Queries || a.HitRate != b.HitRate {
		t.Errorf("same seed diverged: %v/%v vs %v/%v",
			a.MsgPerRound, a.HitRate, b.MsgPerRound, b.HitRate)
	}
	c := quickConfig(StrategyPartialTTL)
	c.Seed = 999
	cRes, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if cRes.MsgPerRound == a.MsgPerRound && cRes.Queries == a.Queries {
		t.Error("different seeds produced identical measurements")
	}
}

func TestTraceRecordsAdaptation(t *testing.T) {
	// The S2 experiment in miniature: shuffle the query distribution
	// mid-run; the hit rate must dip and then recover as the index
	// adapts (§5.2).
	cfg := quickConfig(StrategyPartialTTL)
	cfg.Rounds = 360
	cfg.WarmupRounds = 120
	cfg.KeyTtl = 60 // short TTL → fast adaptation at test scale
	shiftRound := 300
	cfg.Shifts = workload.Schedule{{Round: shiftRound, Kind: workload.ShiftShuffle}}
	cfg.TraceEvery = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	var before, dip, after float64
	before, dip, after = -1, -1, -1
	for _, tp := range res.Trace {
		switch {
		case tp.Round == shiftRound-30+29 || (tp.Round < shiftRound && tp.Round >= shiftRound-31):
			before = tp.HitRate
		case tp.Round >= shiftRound && tp.Round < shiftRound+31 && dip < 0:
			dip = tp.HitRate
		case tp.Round >= shiftRound+149 && after < 0:
			after = tp.HitRate
		}
	}
	if before < 0 || dip < 0 || after < 0 {
		t.Fatalf("trace windows missing: before=%v dip=%v after=%v (trace %+v)", before, dip, after, res.Trace)
	}
	if dip >= before {
		t.Errorf("hit rate did not dip after the shuffle: before=%v dip=%v", before, dip)
	}
	if after <= dip+0.05 {
		t.Errorf("hit rate did not recover: dip=%v after=%v", dip, after)
	}
}

func TestNumActiveForCapacityFirst(t *testing.T) {
	p := quickConfig(StrategyIndexAll).ModelParams()
	// 2000 keys / stor 100 = 20 leaves → next pow2 is 32 → 320 peers.
	if got := numActiveFor(p, 2000); got != 320 {
		t.Errorf("numActiveFor(2000) = %d, want 320", got)
	}
	// Tiny index still needs at least one replica group.
	if got := numActiveFor(p, 1); got < p.Repl {
		t.Errorf("numActiveFor(1) = %d, below repl %d", got, p.Repl)
	}
	// Population-bound: never exceeds peers.
	if got := numActiveFor(p, 1e9); got > p.NumPeers {
		t.Errorf("numActiveFor(huge) = %d exceeds population %d", got, p.NumPeers)
	}
}

func TestModelParamsRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	p := cfg.ModelParams()
	if p.NumPeers != cfg.Peers || p.Keys != cfg.Keys || p.Repl != cfg.Repl ||
		math.Abs(p.FQry-cfg.FQry) > 1e-15 || p.Stor != cfg.Stor {
		t.Errorf("ModelParams mismatch: %+v vs %+v", p, cfg)
	}
}

// TestReplicationMasksChurn is the replicated-vs-single A/B under churn:
// the same workload, the same churn process, the same pinned keyTtl — the
// runs differ only in the replica-set size. With r=1 every entry lost to an
// offline peer is a hit-rate cliff until the next miss re-inserts it; with
// r=5 the replica flood fails over to an online copy, so both the index hit
// rate and the overall answer rate must come out measurably higher.
func TestReplicationMasksChurn(t *testing.T) {
	run := func(repl int) Result {
		cfg := quickConfig(StrategyPartialTTL)
		cfg.Repl = repl
		cfg.KeyTtl = 60 // pinned: the A/B must not also move the TTL knob
		cfg.Churn = churn.Model{MeanOnline: 600, MeanOffline: 200}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Queries == 0 {
			t.Fatal("no queries under churn")
		}
		return res
	}
	single := run(1)
	replicated := run(5)
	t.Logf("hit rate: r=1 %.3f vs r=5 %.3f; answer rate: r=1 %.3f vs r=5 %.3f",
		single.HitRate, replicated.HitRate,
		float64(single.Answered)/float64(single.Queries),
		float64(replicated.Answered)/float64(replicated.Queries))
	if replicated.HitRate <= single.HitRate {
		t.Errorf("replication did not lift the hit rate under churn: r=5 %.3f vs r=1 %.3f",
			replicated.HitRate, single.HitRate)
	}
	ansSingle := float64(single.Answered) / float64(single.Queries)
	ansRepl := float64(replicated.Answered) / float64(replicated.Queries)
	if ansRepl <= ansSingle {
		t.Errorf("replication did not lift the answer rate under churn: r=5 %.3f vs r=1 %.3f",
			ansRepl, ansSingle)
	}
}

func TestNegativeTunePeriodRejected(t *testing.T) {
	cfg := quickConfig(StrategyPartialTTL)
	cfg.TunePeriod = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative TunePeriod accepted")
	}
}
