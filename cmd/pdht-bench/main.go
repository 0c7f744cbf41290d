// pdht-bench regenerates every table and figure of the paper's evaluation,
// plus the validation and ablation experiments. It is the one command
// behind EXPERIMENTS.md, whose "Regeneration" section indexes every
// experiment id against the table it prints. Everything it prints is a
// model or simulator result — deterministic for a given -scale and -seed;
// wall-clock numbers of the live node come from bench/ and pdht-chaos.
//
// Usage:
//
//	pdht-bench                    # run everything
//	pdht-bench -experiment fig1   # one experiment (-h lists them)
//	pdht-bench -scale 2000        # population of the sim-backed experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pdht/internal/experiments"
	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/stats"
)

// experiment is one named table; run regenerates it.
type experiment struct {
	name string
	run  func() (*stats.Table, error)
}

// table drops the raw-numbers middle result most experiments return beside
// their table.
func table[T any](t *stats.Table, _ T, err error) (*stats.Table, error) { return t, err }

// experimentList is the single list behind dispatch, -experiment
// validation and the usage text. simBase is called at run time, after the
// flags it depends on are parsed.
func experimentList(simBase func() sim.Config) []experiment {
	p := model.DefaultScenario()
	return []experiment{
		{"table1", func() (*stats.Table, error) { return experiments.Table1(p), nil }},
		{"fig1", func() (*stats.Table, error) { return table(experiments.Fig1(p)) }},
		{"fig2", func() (*stats.Table, error) { return table(experiments.Fig2(p)) }},
		{"fig3", func() (*stats.Table, error) { return table(experiments.Fig3(p)) }},
		{"fig4", func() (*stats.Table, error) { return table(experiments.Fig4(p)) }},
		{"ttlsens", func() (*stats.Table, error) { return table(experiments.TTLSens(p)) }},
		{"alpha", func() (*stats.Table, error) { return experiments.AlphaSweep(p, nil) }},
		{"kary", func() (*stats.Table, error) { return experiments.KarySweep(p) }},
		{"maintenance", func() (*stats.Table, error) {
			return table(experiments.MaintenanceTradeoff(simBase(), nil))
		}},
		{"validate", func() (*stats.Table, error) { return table(experiments.Validate(simBase())) }},
		{"sweep", func() (*stats.Table, error) {
			cfg := simBase()
			cfg.Strategy = sim.StrategyPartialTTL
			return table(experiments.SimSweep(cfg, nil))
		}},
		{"adapt", func() (*stats.Table, error) {
			cfg := simBase()
			cfg.Rounds = 600
			cfg.WarmupRounds = 100
			cfg.KeyTtl = 120
			cfg.TraceEvery = 50
			return table(experiments.Adaptation(cfg, 400))
		}},
		{"calibrate", func() (*stats.Table, error) {
			cfg := simBase()
			cfg.Rounds = 600
			return table(experiments.Calibration(cfg))
		}},
		{"topk", func() (*stats.Table, error) { return table(experiments.TopKAB(simBase())) }},
	}
}

// The -scale and -seed defaults, which BENCH_node.json is generated at.
const (
	defaultScale = 2000
	defaultSeed  = 1
)

func main() {
	scale := flag.Int("scale", defaultScale, "simulator population for the sim-backed experiments")
	seed := flag.Uint64("seed", defaultSeed, "random seed for the sim-backed experiments")
	format := flag.String("format", "table", "output format: table | csv | json")
	list := experimentList(func() sim.Config { return simConfigFor(*scale, *seed) })
	names := make([]string, len(list))
	for i, e := range list {
		names[i] = e.name
	}
	known := strings.Join(names, " ") + " all"
	which := flag.String("experiment", "all", "experiment id: "+known)
	flag.Parse()
	if *format != "table" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	ran := false
	for _, e := range list {
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		t, err := e.run()
		if err == nil {
			err = render(t, *format)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", *which, known)
		os.Exit(2)
	}
}

func render(t *stats.Table, format string) error {
	switch format {
	case "csv":
		return t.RenderCSV(os.Stdout)
	case "json":
		// One JSON object per experiment table: the stream `make bench`
		// concatenates into BENCH_node.json.
		return t.RenderJSON(os.Stdout)
	}
	t.Render(os.Stdout)
	return nil
}

// simConfigFor scales the Table 1 proportions to the given population:
// keys = 2·peers, repl = peers/100, matching the paper's
// 20,000 : 40,000 : 200 ratios.
func simConfigFor(peers int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Peers = peers
	cfg.Keys = 2 * peers
	cfg.Repl = peers / 100
	if cfg.Repl < 2 {
		cfg.Repl = 2
	}
	cfg.Rounds = 300
	cfg.WarmupRounds = 60
	cfg.Seed = seed
	return cfg
}
