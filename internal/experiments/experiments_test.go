package experiments

import (
	"strings"
	"testing"

	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/stats"
)

func quickSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Peers = 800
	cfg.Keys = 1600
	cfg.Repl = 10
	cfg.Rounds = 100
	cfg.WarmupRounds = 30
	return cfg
}

func TestTable1ContainsEverySymbol(t *testing.T) {
	out := Table1(model.DefaultScenario()).RenderString()
	for _, sym := range []string{"numPeers", "keys", "stor", "repl", "α", "fQry", "fUpd", "env", "dup", "dup2", "20000", "40000", "100", "50", "1.20"} {
		if !strings.Contains(out, sym) {
			t.Errorf("Table 1 missing %q:\n%s", sym, out)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	p := model.DefaultScenario()
	type figFn func(model.Params) (interface{ RenderString() string }, int)
	checks := []struct {
		name string
		rows int
		run  func() (string, int, error)
	}{
		{"fig1", 8, func() (string, int, error) {
			tb, pts, err := Fig1(p)
			if err != nil {
				return "", 0, err
			}
			return tb.RenderString(), len(pts), nil
		}},
		{"fig2", 8, func() (string, int, error) {
			tb, pts, err := Fig2(p)
			if err != nil {
				return "", 0, err
			}
			return tb.RenderString(), len(pts), nil
		}},
		{"fig3", 8, func() (string, int, error) {
			tb, pts, err := Fig3(p)
			if err != nil {
				return "", 0, err
			}
			return tb.RenderString(), len(pts), nil
		}},
		{"fig4", 8, func() (string, int, error) {
			tb, pts, err := Fig4(p)
			if err != nil {
				return "", 0, err
			}
			return tb.RenderString(), len(pts), nil
		}},
	}
	for _, c := range checks {
		out, n, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != c.rows {
			t.Errorf("%s: %d rows, want %d", c.name, n, c.rows)
		}
		if !strings.Contains(out, "1/30") || !strings.Contains(out, "1/7200") {
			t.Errorf("%s output missing frequency labels:\n%s", c.name, out)
		}
	}
}

func TestTTLSens(t *testing.T) {
	tb, pts, err := TTLSens(model.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8*5 {
		t.Errorf("sensitivity points = %d, want 40", len(pts))
	}
	out := tb.RenderString()
	if !strings.Contains(out, "-50%") || !strings.Contains(out, "+50%") {
		t.Errorf("sensitivity table missing error labels:\n%s", out)
	}
}

func TestAlphaSweep(t *testing.T) {
	tb, err := AlphaSweep(model.DefaultScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.RenderString()
	for _, a := range []string{"0.6", "1.20", "2"} {
		if !strings.Contains(out, a) {
			t.Errorf("alpha sweep missing %s:\n%s", a, out)
		}
	}
}

func TestValidate(t *testing.T) {
	tb, rows, err := Validate(quickSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("validation rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Answered != r.Result.Queries {
			t.Errorf("%v: answered %d/%d", r.Strategy, r.Result.Answered, r.Result.Queries)
		}
		if r.Ratio < 0.3 || r.Ratio > 3.5 {
			t.Errorf("%v: ratio %v outside band", r.Strategy, r.Ratio)
		}
	}
	out := tb.RenderString()
	for _, s := range []string{"noIndex", "indexAll", "partial", "partialTTL"} {
		if !strings.Contains(out, s) {
			t.Errorf("validation table missing %s", s)
		}
	}
}

func TestSimSweepSubset(t *testing.T) {
	cfg := quickSim()
	cfg.Strategy = sim.StrategyPartialTTL
	_, results, err := SimSweep(cfg, []float64{1.0 / 30.0, 1.0 / 300.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Busier traffic, more messages.
	if results[0].MsgPerRound <= results[1].MsgPerRound {
		t.Errorf("sweep ordering wrong: %v vs %v",
			results[0].MsgPerRound, results[1].MsgPerRound)
	}
}

func TestAdaptation(t *testing.T) {
	cfg := quickSim()
	cfg.Rounds = 240
	cfg.WarmupRounds = 60
	cfg.KeyTtl = 50
	_, res, err := Adaptation(cfg, 180)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestKarySweepTable(t *testing.T) {
	tb, err := KarySweep(model.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.RenderString()
	if !strings.Contains(out, "optimal k = 2") {
		t.Errorf("A5 table missing the optimum:\n%s", out)
	}
	for _, k := range []string{"2", "4", "8", "16", "32"} {
		if !strings.Contains(out, k) {
			t.Errorf("A5 table missing k=%s", k)
		}
	}
}

func TestMaintenanceTradeoff(t *testing.T) {
	cfg := quickSim()
	cfg.Rounds = 150
	tb, results, err := MaintenanceTradeoff(cfg, []float64{0, 1.0 / 14.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// No probing means no maintenance traffic; probing means some.
	if results[0].ByClass[stats.MsgMaintenance] != 0 {
		t.Error("env=0 produced maintenance traffic")
	}
	if results[1].ByClass[stats.MsgMaintenance] <= 0 {
		t.Error("env=1/14 produced no maintenance traffic")
	}
	// Under churn, unmaintained routing detours more.
	if results[0].MeanLookupHops <= results[1].MeanLookupHops {
		t.Errorf("stale routing should cost hops: %v vs %v",
			results[0].MeanLookupHops, results[1].MeanLookupHops)
	}
	if !strings.Contains(tb.RenderString(), "0.0714") {
		t.Error("A4 table missing the paper's env")
	}
}

func TestCalibration(t *testing.T) {
	cfg := quickSim()
	cfg.Rounds = 400
	_, res, err := Calibration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.EstimatedAlpha - res.TrueAlpha; diff > 0.15 || diff < -0.15 {
		t.Errorf("estimated α = %v, true %v", res.EstimatedAlpha, res.TrueAlpha)
	}
	ratio := res.CalibratedTtl / res.TrueKeyTtl
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("calibrated keyTtl %v vs true %v (ratio %v)",
			res.CalibratedTtl, res.TrueKeyTtl, ratio)
	}
	if res.MeasuredFQry <= 0 {
		t.Error("no measured query rate")
	}
}

func TestTopKAB(t *testing.T) {
	cfg := quickSim()
	tb, rows, err := TopKAB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("TopKAB returned %d rows, want uniform + adaptive", len(rows))
	}
	uni, ada := rows[0], rows[1]
	if uni.TopKLegsPerQuery <= ada.TopKLegsPerQuery {
		t.Fatalf("adaptive legs/query %v did not beat uniform %v",
			ada.TopKLegsPerQuery, uni.TopKLegsPerQuery)
	}
	out := tb.RenderString()
	for _, want := range []string{"uniform", "adaptive", "legs/query"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
