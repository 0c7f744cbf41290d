// Benchmarks, one per table/figure of the paper plus the validation and
// ablation experiments of DESIGN.md. Each benchmark regenerates its
// artifact from scratch and attaches the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as a smoke-test of the
// whole reproduction. The rendered tables themselves come from
// `go run ./cmd/pdht-bench`.
package pdht_test

import (
	"testing"

	"pdht/internal/experiments"
	"pdht/internal/model"
	"pdht/internal/sim"
)

// benchSimConfig is the simulator scale used by the sim-backed benchmarks:
// Table 1 proportions at 1/25 population, small enough for -bench=. to
// finish in seconds per benchmark.
func benchSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Peers = 800
	cfg.Keys = 1600
	cfg.Repl = 8
	cfg.Rounds = 150
	cfg.WarmupRounds = 40
	return cfg
}

// BenchmarkTable1Scenario solves the full model at the Table 1 scenario —
// the computation every other figure builds on.
func BenchmarkTable1Scenario(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var sol model.Solution
	for i := 0; i < b.N; i++ {
		var err error
		sol, err = model.Solve(p, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sol.MaxRank), "maxRank")
	b.ReportMetric(sol.FMin, "fMin")
}

// BenchmarkFig1CostCurves regenerates Figure 1: the three strategy cost
// curves across the frequency grid.
func BenchmarkFig1CostCurves(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var pts []model.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig1(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].IndexAll, "indexAll@1/30")
	b.ReportMetric(pts[0].NoIndex, "noIndex@1/30")
	b.ReportMetric(pts[0].Partial, "partial@1/30")
}

// BenchmarkFig2Savings regenerates Figure 2: savings of ideal partial
// indexing against both baselines.
func BenchmarkFig2Savings(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var pts []model.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig2(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].SavingsVsNoIndex, "sav-vs-noIndex@1/30")
	b.ReportMetric(pts[len(pts)-1].SavingsVsIndexAll, "sav-vs-indexAll@1/7200")
}

// BenchmarkFig3IndexSize regenerates Figure 3: index-size fraction and hit
// probability.
func BenchmarkFig3IndexSize(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var pts []model.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig3(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].IndexFraction, "idxfrac@1/30")
	b.ReportMetric(pts[len(pts)-1].IndexFraction, "idxfrac@1/7200")
	b.ReportMetric(pts[len(pts)-1].PIndxd, "pIndxd@1/7200")
}

// BenchmarkFig4SelectionSavings regenerates Figure 4: savings of the TTL
// selection algorithm.
func BenchmarkFig4SelectionSavings(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var pts []model.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.Fig4(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].TTLSavingsVsNoIndex, "sav-vs-noIndex@1/30")
	b.ReportMetric(pts[3].TTLSavingsVsIndexAll, "sav-vs-indexAll@1/300")
}

// BenchmarkTTLSensitivity regenerates the §5.1.1 sensitivity analysis.
func BenchmarkTTLSensitivity(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var pts []model.TTLSensitivityPoint
	for i := 0; i < b.N; i++ {
		var err error
		_, pts, err = experiments.TTLSens(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, pt := range pts {
		if pt.DeltaSavings > worst {
			worst = pt.DeltaSavings
		}
	}
	b.ReportMetric(worst, "worst-Δsavings")
}

// BenchmarkAlphaSweep regenerates ablation A2: the Zipf-exponent sweep.
func BenchmarkAlphaSweep(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AlphaSweep(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorVsModel runs experiment V1: all four strategies
// through the message-level simulator.
func BenchmarkSimulatorVsModel(b *testing.B) {
	cfg := benchSimConfig()
	b.ReportAllocs()
	var rows []experiments.ValidationRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Validate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio, "ratio-"+r.Strategy.String())
	}
}

// BenchmarkAdaptation runs experiment S2: the distribution-shift recovery.
func BenchmarkAdaptation(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Rounds = 300
	cfg.KeyTtl = 80
	cfg.TraceEvery = 30
	b.ReportAllocs()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Adaptation(cfg, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.HitRate, "hit-rate")
}

// BenchmarkKarySweep runs ablation A5: the footnote-3 k-ary key-space
// generalization.
func BenchmarkKarySweep(b *testing.B) {
	p := model.DefaultScenario()
	b.ReportAllocs()
	var best model.KaryPoint
	for i := 0; i < b.N; i++ {
		var err error
		best, err = model.OptimalKary(p, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(best.K), "optimal-k")
}

// BenchmarkMaintenanceTradeoff runs ablation A4: probe rate versus routing
// quality under churn.
func BenchmarkMaintenanceTradeoff(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Rounds = 120
	b.ReportAllocs()
	var rows []sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.MaintenanceTradeoff(cfg, []float64{0, 1.0 / 14.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanLookupHops, "hops-env0")
	b.ReportMetric(rows[1].MeanLookupHops, "hops-env1/14")
}

// BenchmarkCalibration runs experiment A6: recovering the model's inputs
// from the live query stream.
func BenchmarkCalibration(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Rounds = 300
	b.ReportAllocs()
	var res experiments.CalibrationResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Calibration(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EstimatedAlpha, "alpha-hat")
	b.ReportMetric(res.CalibratedTtl, "keyTtl-hat")
}

// BenchmarkSimulatedSweepTTL measures the simulated Fig-4 counterpart at
// two frequencies (the full grid is a pdht-bench job, not a benchmark).
func BenchmarkSimulatedSweepTTL(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Strategy = sim.StrategyPartialTTL
	freqs := []float64{1.0 / 30.0, 1.0 / 600.0}
	b.ReportAllocs()
	var results []sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = experiments.SimSweep(cfg, freqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[0].MsgPerRound, "msg@1/30")
	b.ReportMetric(results[1].MsgPerRound, "msg@1/600")
}
