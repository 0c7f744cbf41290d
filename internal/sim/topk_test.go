package sim

import (
	"testing"

	"pdht/internal/stats"
)

// topkConfig scales the scenario down to a fast A/B: 64 peers, 50 term-
// groups replicated at 12 peers each, 3-term queries asking for the top 4.
func topkConfig(uniform bool) Config {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyPartialTopK
	cfg.Peers = 64
	cfg.Keys = 200
	cfg.Repl = 10
	cfg.FQry = 0.05
	cfg.Rounds = 80
	cfg.WarmupRounds = 40
	cfg.TopKK = 4
	cfg.TopKTerms = 3
	cfg.TopKGroups = 50
	cfg.TopKGroupSize = 4
	cfg.TopKCopies = 12
	cfg.TopKUniform = uniform
	return cfg
}

// The headline A/B of the adaptive planner: at identical workloads and
// identical (exact) answers, the yield-history plan must pay fewer wire
// legs per query than the uniform full fan-out, by terminating early on
// the Zipf head's queries.
func TestAdaptiveTopKBeatsUniformK(t *testing.T) {
	uni, err := Run(topkConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ada, err := Run(topkConfig(false))
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]Result{"uniform": uni, "adaptive": ada} {
		if res.Queries == 0 {
			t.Fatalf("%s run issued no queries", name)
		}
		// Both sides must answer every query exactly — the saving below
		// is only meaningful at equal answer quality.
		if res.Answered != res.Queries {
			t.Fatalf("%s answered %d of %d queries exactly", name, res.Answered, res.Queries)
		}
		if res.ByClass[stats.MsgTopK] == 0 {
			t.Fatalf("%s run recorded no MsgTopK traffic", name)
		}
	}

	// The uniform baseline pays the full fan-out on every query: all
	// members probed once, only the coordinator's self-scan free.
	if want := float64(uni.Config.Peers - 1); uni.TopKLegsPerQuery != want {
		t.Fatalf("uniform legs/query = %v, want the full fan-out %v", uni.TopKLegsPerQuery, want)
	}
	if uni.TopKEarlyRate != 0 {
		t.Fatalf("uniform early-termination rate = %v, want 0 (it drains everything)", uni.TopKEarlyRate)
	}

	// The observed saving is ~2×; 20% is the regression floor.
	if ada.TopKLegsPerQuery >= 0.8*uni.TopKLegsPerQuery {
		t.Fatalf("adaptive legs/query = %v did not beat uniform %v by ≥20%%",
			ada.TopKLegsPerQuery, uni.TopKLegsPerQuery)
	}
	if ada.TopKEarlyRate == 0 {
		t.Fatal("adaptive planner never terminated a query early")
	}
	t.Logf("legs/query: uniform %.1f, adaptive %.1f (early rate %.2f)",
		uni.TopKLegsPerQuery, ada.TopKLegsPerQuery, ada.TopKEarlyRate)
}

// StrategyPartialTopK's extra configuration is validated.
func TestTopKConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.TopKK = 0 },
		func(c *Config) { c.TopKTerms = 0 },
		func(c *Config) { c.TopKTerms = c.TopKGroupSize + 1 },
		func(c *Config) { c.TopKGroups = 0 },
		func(c *Config) { c.TopKCopies = 0 },
		func(c *Config) { c.TopKCopies = c.Peers + 1 },
	}
	for i, mut := range mutations {
		cfg := topkConfig(false)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if s, err := ParseStrategy("partialTopK"); err != nil || s != StrategyPartialTopK {
		t.Fatalf("ParseStrategy(partialTopK) = %v, %v", s, err)
	}
	if got := StrategyPartialTopK.String(); got != "partialTopK" {
		t.Fatalf("String() = %q", got)
	}
}
