// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the validation and ablation experiments DESIGN.md
// defines. Each experiment returns a rendered plain-text table (the repo's
// equivalent of the paper's plots) together with the underlying numbers, so
// the same code serves the pdht-bench and pdht-model binaries and the
// EXPERIMENTS.md record. Each TableN/FigureN function returns a rendered
// stats.Table; ValidationRow and CalibrationResult carry the underlying
// numbers.
package experiments

import (
	"fmt"
	"strings"

	"pdht/internal/model"
	"pdht/internal/stats"
)

// Table1 renders the parameters of the sample scenario — the paper's
// Table 1, symbol by symbol. The fQry row is the frequency grid Figures
// 1–4 sweep; every other row is p's own value.
func Table1(p model.Params) *stats.Table {
	env := fmt.Sprintf("%.4f", p.Env)
	if f := model.FormatFrequency(p.Env); strings.HasPrefix(f, "1/") {
		env = f + " ≈ " + env
	}
	t := stats.NewTable("Table 1 — parameters of the sample scenario",
		"description", "param", "value")
	t.AddRow("Total number of peers", "numPeers", p.NumPeers)
	t.AddRow("Number of unique keys", "keys", p.Keys)
	t.AddRow("Storage capacity for indexing per peer", "stor", p.Stor)
	t.AddRow("Replication factor", "repl", p.Repl)
	t.AddRow("α of query Zipf distribution", "α", p.Alpha)
	t.AddRow("Frequency of queries per peer per second", "fQry",
		fmt.Sprintf("%s 1/s to %s 1/s",
			model.FormatFrequency(1.0/30.0), model.FormatFrequency(1.0/7200.0)))
	t.AddRow("Avg. update freq. per key", "fUpd", model.FormatFrequency(p.FUpd)+" 1/s")
	t.AddRow("Route maintenance constant", "env", env)
	t.AddRow("Message duplication factor (unstructured)", "dup", p.Dup)
	t.AddRow("Message duplication factor (replica subnet)", "dup2", p.Dup2)
	return t
}

// Fig1 reproduces Figure 1: total messages per second versus query
// frequency for indexAll (eq. 11), noIndex (eq. 12) and ideal partial
// indexing (eq. 13).
func Fig1(p model.Params) (*stats.Table, []model.SweepPoint, error) {
	pts, err := model.Sweep(p, nil)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 1 — query frequency vs total messages per second",
		"fQry", "indexAll", "noIndex", "partial")
	for _, pt := range pts {
		t.AddRow(model.FormatFrequency(pt.FQry), pt.IndexAll, pt.NoIndex, pt.Partial)
	}
	return t, pts, nil
}

// Fig2 reproduces Figure 2: savings of ideal partial indexing compared to
// indexing all keys and compared to broadcasting all queries.
func Fig2(p model.Params) (*stats.Table, []model.SweepPoint, error) {
	pts, err := model.Sweep(p, nil)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 2 — savings of ideal partial indexing",
		"fQry", "vs indexAll", "vs noIndex")
	for _, pt := range pts {
		t.AddRow(model.FormatFrequency(pt.FQry), pt.SavingsVsIndexAll, pt.SavingsVsNoIndex)
	}
	return t, pts, nil
}

// Fig3 reproduces Figure 3: the fraction of keys worth indexing and the
// probability that a query is answered from the index.
func Fig3(p model.Params) (*stats.Table, []model.SweepPoint, error) {
	pts, err := model.Sweep(p, nil)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 3 — index size and hit probability (ideal partial indexing)",
		"fQry", "index size", "pIndxd", "maxRank")
	for _, pt := range pts {
		t.AddRow(model.FormatFrequency(pt.FQry), pt.IndexFraction, pt.PIndxd, pt.Solution.MaxRank)
	}
	return t, pts, nil
}

// Fig4 reproduces Figure 4: savings of the TTL selection algorithm
// (eq. 17, keyTtl = 1/fMin) against both baselines.
func Fig4(p model.Params) (*stats.Table, []model.SweepPoint, error) {
	pts, err := model.Sweep(p, nil)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 4 — savings of the selection algorithm",
		"fQry", "vs indexAll", "vs noIndex", "keyTtl", "E[index]", "pIndxd")
	for _, pt := range pts {
		t.AddRow(model.FormatFrequency(pt.FQry),
			pt.TTLSavingsVsIndexAll, pt.TTLSavingsVsNoIndex,
			pt.TTL.KeyTtl, pt.TTL.IndexSize, pt.TTL.PIndxd)
	}
	return t, pts, nil
}

// TTLSens reproduces the §5.1.1 sensitivity claim: savings with keyTtl
// mis-estimated by ±25% and ±50%.
func TTLSens(p model.Params) (*stats.Table, []model.TTLSensitivityPoint, error) {
	errs := []float64{-0.5, -0.25, 0, 0.25, 0.5}
	pts, err := model.TTLSensitivity(p, nil, errs)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("§5.1.1 — keyTtl estimation-error sensitivity",
		"fQry", "error", "keyTtl", "savings vs noIndex", "Δsavings")
	for _, pt := range pts {
		t.AddRow(model.FormatFrequency(pt.FQry),
			fmt.Sprintf("%+.0f%%", pt.Error*100),
			pt.KeyTtl, pt.SavingsVsNoIndex, pt.DeltaSavings)
	}
	return t, pts, nil
}

// KarySweep is ablation A5: the paper's footnote-3 generalization to k-ary
// key spaces. Bigger branching factors buy shorter lookups but bigger
// routing tables, so the probing cost of eq. 8 grows; which side wins
// depends on the query/maintenance balance.
func KarySweep(p model.Params) (*stats.Table, error) {
	pts, err := model.KarySweep(p, nil)
	if err != nil {
		return nil, err
	}
	best, err := model.OptimalKary(p, nil)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Ablation A5 — k-ary key space at fQry = %s (optimal k = %d)",
			model.FormatFrequency(p.FQry), best.K),
		"k", "cSIndx [msg]", "cRtn [msg/s/key]", "indexAll [msg/s]")
	for _, pt := range pts {
		t.AddRow(pt.K, pt.CSIndx, pt.CRtn, pt.IndexAll)
	}
	return t, nil
}

// AlphaSweep is ablation A2: how the Zipf exponent moves the worthwhile
// index size and the savings (the paper fixes α = 1.2 from [Srip01]; this
// shows what less and more skewed workloads do).
func AlphaSweep(p model.Params, alphas []float64) (*stats.Table, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.6, 0.8, 1.0, 1.2, 1.5, 2.0}
	}
	t := stats.NewTable("Ablation A2 — Zipf exponent α at fQry = "+model.FormatFrequency(p.FQry),
		"α", "maxRank", "index frac", "pIndxd", "partial msg/s", "savings vs noIndex")
	for _, a := range alphas {
		q := p
		q.Alpha = a
		costs, err := model.CostsAt(q, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(a,
			costs.Solution.MaxRank,
			float64(costs.Solution.MaxRank)/float64(q.Keys),
			costs.Solution.PIndxd,
			costs.Partial,
			model.Savings(costs.Partial, costs.NoIndex))
	}
	return t, nil
}
