package sim

import (
	"testing"

	"pdht/internal/model"
	"pdht/internal/workload"
)

// adaptiveConfig is a compact scenario whose per-key holding cost (env = 1)
// makes fMin large enough that the tail of the Zipf distribution is not
// worth indexing — the regime where the adaptive gate has a decision to make.
func adaptiveConfig() Config {
	cfg := quickConfig(StrategyPartialAdaptive)
	// High replication keeps broadcasts cheap (cSUnstr = peers/repl·dup)
	// and env = 1 makes holding an entry expensive, so fMin lands where
	// the Zipf tail genuinely is not worth indexing.
	cfg.Peers = 200
	cfg.Keys = 1000
	cfg.Stor = 50
	cfg.Repl = 10
	cfg.Env = 1
	cfg.FQry = 0.2
	cfg.Rounds = 200
	cfg.WarmupRounds = 60
	cfg.TunePeriod = 40
	cfg.KeyTtl = 4 // a deliberately poor static setting for the A/B below
	return cfg
}

// TestPartialAdaptiveRunsAndGates is the simulator-level smoke test of the
// control plane: the run completes, queries resolve, the tuner retunes, and
// below-fMin keys are measurably gated.
func TestPartialAdaptiveRunsAndGates(t *testing.T) {
	res, err := Run(adaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.Answered != res.Queries {
		t.Fatalf("%d/%d queries answered, want all", res.Answered, res.Queries)
	}
	if res.Tuner.Retunes == 0 {
		t.Fatal("the control loop never retuned")
	}
	if res.GatedInserts == 0 {
		t.Fatal("no insert was gated; the fMin gate is inert")
	}
	if res.Tuner.MemoryBytes == 0 || res.Tuner.MemoryBytes > 1<<21 {
		t.Fatalf("sketch memory %d bytes outside the bounded range", res.Tuner.MemoryBytes)
	}
	if res.KeyTtlUsed == 4 {
		t.Fatal("keyTtl never moved off the static setting")
	}
	t.Logf("adaptive: ttl %d→%d, hit rate %.3f, %d gated inserts, fMin %.4g",
		4, res.KeyTtlUsed, res.HitRate, res.GatedInserts, res.Tuner.Last.FMin)
}

// TestAdaptiveBeatsStaticUnderShift is the A/B the strategy exists for: the
// same scenario, same seed, same mid-run popularity shuffle — once with the
// static (badly sized) keyTtl, once with the control plane driving it. The
// adaptive run must pay fewer messages per query.
func TestAdaptiveBeatsStaticUnderShift(t *testing.T) {
	shift := workload.Schedule{{Round: 130, Kind: workload.ShiftShuffle}}

	static := adaptiveConfig()
	static.Strategy = StrategyPartialTTL
	static.Shifts = shift
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}

	adaptive := adaptiveConfig()
	adaptive.Shifts = shift
	ares, err := Run(adaptive)
	if err != nil {
		t.Fatal(err)
	}

	if ares.Answered != ares.Queries || sres.Answered != sres.Queries {
		t.Fatalf("unanswered queries: adaptive %d/%d, static %d/%d",
			ares.Answered, ares.Queries, sres.Answered, sres.Queries)
	}
	staticCost := sres.MsgPerRound / (float64(sres.Queries) / float64(sres.MeasuredRounds))
	adaptiveCost := ares.MsgPerRound / (float64(ares.Queries) / float64(ares.MeasuredRounds))
	t.Logf("messages per query: static %.1f (ttl %d, hit %.3f) vs adaptive %.1f (ttl %d, hit %.3f, %d gated)",
		staticCost, sres.KeyTtlUsed, sres.HitRate, adaptiveCost, ares.KeyTtlUsed, ares.HitRate, ares.GatedInserts)
	if adaptiveCost >= staticCost {
		t.Fatalf("adaptive pays %.2f msgs/query, static %.2f — the control plane does not pay for itself",
			adaptiveCost, staticCost)
	}
}

// TestAdaptiveTTLLandsNearModelIdeal pins the one online keyTtl controller
// to the claim it can meet: started from the coarse 600-round guess
// (KeyTtl 0), the tuner ends within the paper's own ±50 % tolerance
// (§5.1.1) of the model's 1/fMin, on every seed.
func TestAdaptiveTTLLandsNearModelIdeal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := quickConfig(StrategyPartialAdaptive)
		cfg.Rounds = 400
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := model.Solve(cfg.ModelParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ideal := model.IdealKeyTtl(sol)
		got := float64(res.KeyTtlUsed)
		t.Logf("seed %d: keyTtl 600→%d, model 1/fMin %.0f (%+.0f%%)", seed, res.KeyTtlUsed, ideal, 100*(got/ideal-1))
		if res.KeyTtlUsed == 600 {
			t.Errorf("seed %d: the tuner never moved off the initial guess", seed)
		}
		if got < 0.5*ideal || got > 1.5*ideal {
			t.Errorf("seed %d: keyTtl %d outside ±50%% of the model's %.0f", seed, res.KeyTtlUsed, ideal)
		}
	}
}
