package experiments

import (
	"fmt"

	"pdht/internal/churn"
	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/stats"
	"pdht/internal/workload"
	"pdht/internal/zipf"
)

// ValidationRow is one strategy's measured-versus-predicted comparison.
type ValidationRow struct {
	Strategy sim.Strategy
	Result   sim.Result
	Ratio    float64 // measured / model
}

// Validate is experiment V1: run all four strategies through the
// message-level simulator at the given scale and compare measured message
// rates with the analytical model. The base config's Strategy field is
// ignored.
func Validate(base sim.Config) (*stats.Table, []ValidationRow, error) {
	t := stats.NewTable(
		fmt.Sprintf("V1 — simulator vs model (%d peers, %d keys, fQry %s)",
			base.Peers, base.Keys, model.FormatFrequency(base.FQry)),
		"strategy", "measured msg/s", "model msg/s", "ratio", "hit rate", "E[index]", "answered")
	var rows []ValidationRow
	for _, s := range []sim.Strategy{
		sim.StrategyNoIndex, sim.StrategyIndexAll,
		sim.StrategyPartialIdeal, sim.StrategyPartialTTL,
	} {
		cfg := base
		cfg.Strategy = s
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %v: %w", s, err)
		}
		ratio := 0.0
		if res.ModelMsgPerRound > 0 {
			ratio = res.MsgPerRound / res.ModelMsgPerRound
		}
		rows = append(rows, ValidationRow{Strategy: s, Result: res, Ratio: ratio})
		t.AddRow(s.String(), res.MsgPerRound, res.ModelMsgPerRound, ratio,
			res.HitRate, res.MeanIndexedKeys,
			fmt.Sprintf("%d/%d", res.Answered, res.Queries))
	}
	return t, rows, nil
}

// SimSweep runs one strategy across the frequency grid in the simulator —
// the measured counterpart of Figures 1–4. freqs nil means the paper's
// grid.
func SimSweep(base sim.Config, freqs []float64) (*stats.Table, []sim.Result, error) {
	if freqs == nil {
		freqs = model.FrequencyGrid()
	}
	t := stats.NewTable(
		fmt.Sprintf("Simulated sweep — %s (%d peers, %d keys)", base.Strategy, base.Peers, base.Keys),
		"fQry", "measured msg/s", "model msg/s", "hit rate", "index frac")
	var out []sim.Result
	for _, f := range freqs {
		cfg := base
		cfg.FQry = f
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		t.AddRow(model.FormatFrequency(f), res.MsgPerRound, res.ModelMsgPerRound,
			res.HitRate, res.IndexFraction())
	}
	return t, out, nil
}

// Adaptation is experiment S2: the selection algorithm under a complete
// query-distribution change. It returns the hit-rate/index-size time
// series around the shift; §5.2's claim is that the index follows the
// workload.
func Adaptation(base sim.Config, shiftRound int) (*stats.Table, sim.Result, error) {
	cfg := base
	cfg.Strategy = sim.StrategyPartialTTL
	cfg.Shifts = workload.Schedule{{Round: shiftRound, Kind: workload.ShiftShuffle}}
	if cfg.TraceEvery == 0 {
		cfg.TraceEvery = 30
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, sim.Result{}, err
	}
	t := stats.NewTable(
		fmt.Sprintf("S2 — adaptation to a query-distribution shuffle at round %d", shiftRound),
		"round", "hit rate", "answer rate", "indexed keys", "msg/round")
	for _, tp := range res.Trace {
		marker := ""
		if tp.Round >= shiftRound && tp.Round < shiftRound+cfg.TraceEvery {
			marker = " ← shift"
		}
		t.AddRow(fmt.Sprintf("%d%s", tp.Round, marker),
			tp.HitRate, tp.AnswerRate, tp.IndexedKeys, tp.MsgPerRound)
	}
	return t, res, nil
}

// MaintenanceTradeoff is ablation A4: eq. 8's premise probed directly. The
// routing-maintenance constant env buys routing-table freshness under
// churn; sweeping the probe rate shows the trade between maintenance
// traffic and lookup quality (failed routes, detour hops). envs nil sweeps
// {0, 1/50, 1/14, 1/5}; the churn model is fixed at hour-scale sessions.
func MaintenanceTradeoff(base sim.Config, envs []float64) (*stats.Table, []sim.Result, error) {
	if envs == nil {
		envs = []float64{0, 1.0 / 50.0, 1.0 / 14.0, 1.0 / 5.0}
	}
	t := stats.NewTable("A4 — maintenance rate vs routing quality under churn",
		"env", "maintenance msg/s", "route failures", "mean hops", "hit rate", "total msg/s")
	var out []sim.Result
	for _, env := range envs {
		cfg := base
		cfg.Strategy = sim.StrategyPartialTTL
		cfg.Env = env
		if cfg.Churn.MeanOnline == 0 {
			// Half the population offline at any time — harsh
			// enough that stale routing state actually bites.
			cfg.Churn = churn.Model{MeanOnline: 300, MeanOffline: 300}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		t.AddRow(fmt.Sprintf("%.4f", env),
			res.ByClass[stats.MsgMaintenance],
			res.RouteFailures, res.MeanLookupHops, res.HitRate, res.MsgPerRound)
	}
	return t, out, nil
}

// CalibrationResult reports experiment A6.
type CalibrationResult struct {
	TrueAlpha      float64
	EstimatedAlpha float64
	TrueKeyTtl     float64 // 1/fMin at the configured parameters
	CalibratedTtl  float64 // 1/fMin at the measured parameters
	MeasuredFQry   float64
	Result         sim.Result
}

// Calibration is experiment A6: close the measurement loop the paper
// leaves open. A run of the selection algorithm records its own per-key
// query counts; the Zipf exponent is recovered from them by maximum
// likelihood (zipf.EstimateAlpha) and, together with the measured query
// rate, fed back into the analytical model. The calibrated keyTtl should
// land near the one derived from the configured ground truth.
func Calibration(base sim.Config) (*stats.Table, CalibrationResult, error) {
	cfg := base
	cfg.Strategy = sim.StrategyPartialTTL
	cfg.CollectKeyCounts = true
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, CalibrationResult{}, err
	}
	estAlpha, err := zipf.EstimateAlpha(res.KeyQueryCounts, cfg.Keys)
	if err != nil {
		return nil, CalibrationResult{}, err
	}
	measuredFQry := float64(res.Queries) / float64(res.MeasuredRounds) / float64(cfg.Peers)

	truth := cfg.ModelParams()
	trueSol, err := model.Solve(truth, nil)
	if err != nil {
		return nil, CalibrationResult{}, err
	}
	measured := truth
	measured.Alpha = estAlpha
	measured.FQry = measuredFQry
	calSol, err := model.Solve(measured, nil)
	if err != nil {
		return nil, CalibrationResult{}, err
	}

	out := CalibrationResult{
		TrueAlpha:      cfg.Alpha,
		EstimatedAlpha: estAlpha,
		TrueKeyTtl:     model.IdealKeyTtl(trueSol),
		CalibratedTtl:  model.IdealKeyTtl(calSol),
		MeasuredFQry:   measuredFQry,
		Result:         res,
	}
	t := stats.NewTable("A6 — model calibration from the live query stream",
		"quantity", "configured", "measured/derived")
	t.AddRow("Zipf α", cfg.Alpha, estAlpha)
	t.AddRow("fQry [1/s]", cfg.FQry, measuredFQry)
	t.AddRow("keyTtl = 1/fMin [rounds]", out.TrueKeyTtl, out.CalibratedTtl)
	t.AddRow("maxRank", trueSol.MaxRank, calSol.MaxRank)
	return t, out, nil
}

// TopKAB is experiment T1, the distributed top-k A/B: the adaptive
// planner (yield history plus sketch-fed term weights) against the
// uniform full-fan-out baseline at identical workloads and identical
// exact answers. The comparison runs at a fixed small scale — the uniform
// side pays peers−1 wire legs on every query, so large populations buy no
// extra signal, only wall-clock.
func TopKAB(base sim.Config) (*stats.Table, []sim.Result, error) {
	cfg := base
	cfg.Strategy = sim.StrategyPartialTopK
	if cfg.Peers > 128 {
		cfg.Peers = 128
		cfg.Keys = 256
		cfg.Repl = 10
	}
	cfg.FQry = 0.05
	cfg.Rounds = 120
	cfg.WarmupRounds = 40
	if cfg.TopKCopies > cfg.Peers {
		cfg.TopKCopies = cfg.Peers / 4
	}
	t := stats.NewTable(
		fmt.Sprintf("T1 — distributed top-k: adaptive planner vs uniform fan-out (%d peers, k=%d, %d terms/query)",
			cfg.Peers, cfg.TopKK, cfg.TopKTerms),
		"plan", "legs/query", "early %", "msg/s", "exact answers")
	var out []sim.Result
	for _, uniform := range []bool{true, false} {
		c := cfg
		c.TopKUniform = uniform
		res, err := sim.Run(c)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
		name := "adaptive"
		if uniform {
			name = "uniform"
		}
		t.AddRow(name, res.TopKLegsPerQuery, 100*res.TopKEarlyRate,
			res.MsgPerRound, fmt.Sprintf("%d/%d", res.Answered, res.Queries))
	}
	return t, out, nil
}
