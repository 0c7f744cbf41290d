// Command bench is the live-cluster load benchmark and layer ledger of the
// repository: it boots a 5-member, Repl=3 cluster over loopback TCP inside
// this one process, drives it with closed-loop clients, checks every
// answer, and prints every metric BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the JSON object a run ends with; its keys are fixed by the
// benchmark contract.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// record is the line -out appends: the result plus what identifies the run
// and the machine it ran on.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Calls    int     `json:"calls"`
	Go       string  `json:"go"`
	Nproc    int     `json:"nproc"`
	result
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A run applies warmup of load before the measured window and does its
// set-up setupRuns times, reporting the median. Both are part of what a
// result means, so they are fixed here, the same on every commit; only the
// tests shrink them.
const (
	warmup    = 3 * time.Second
	setupRuns = 3
)

// options are a run's settings: the flags plus the fixed sizes.
type options struct {
	sizes
	seed    uint64
	trace   bool
	setups  int // how many times set-up is measured (median reported)
	clients int
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics (traced run + layer probes)")
		scratch = flag.String("scratch", ".bench_build", "directory for durable members' data and span dumps")
		out     = flag.String("out", "", "append each run's result to this file, one JSON object per line (input of bench/compare)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	opt := options{
		sizes: sizes{
			warmup:  warmup,
			measure: time.Duration(*seconds * float64(time.Second)),
			scratch: *scratch,
		},
		seed:    *seed,
		trace:   *trace != 0,
		setups:  setupRuns,
		clients: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("pdht bench: %d members, repl %d, loopback TCP in a single process (real sockets, no real link); %d closed-loop clients; %s\n",
		members, repl, opt.clients, runtime.Version())
	ok := true
	for _, w := range selected {
		rec, err := run(w, opt, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *out != "" {
			line, err := json.Marshal(rec)
			if err != nil {
				fatal(err)
			}
			if err := appendLine(*out, line); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run measures one workload: set-up (repeated, the last one kept), warm-up
// under load, then either the untraced window (end-to-end metrics) or the
// per-layer pass. A run that violates a validity guard returns an error
// and prints no result.
func run(w workload, opt options, log io.Writer) (record, error) {
	var (
		e       *env
		setupS  []float64
		setupsN = opt.setups
	)
	if opt.trace {
		setupsN = 1 // setup_s is an end-to-end metric
	}
	for i := 0; i < setupsN; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return record{}, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(w, opt.seed, opt.sizes, opt.clients); err != nil {
			return record{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// From here on e is closed exactly once, below, whatever happened.
	var (
		values   map[string]float64
		sum      tally
		probeLeg float64
		err      error
		defs     = endToEnd
	)
	if warm := e.drive(opt.warmup, false); warm.invalid != "" {
		err = fmt.Errorf("invalid warm-up: %s", warm.invalid)
	} else if opt.trace {
		defs = perLayer
		values, sum, probeLeg, err = layerWindows(e, opt)
	} else if win := e.drive(opt.measure, false); win.invalid != "" {
		err = fmt.Errorf("invalid run: %s", win.invalid)
	} else {
		values, sum = win.endToEnd(), win.totals()
		values["setup_s"] = median(setupS)
	}
	if closeErr := e.close(); err == nil {
		err = closeErr
	}
	if err == nil && opt.trace {
		err = addProbes(values, probeLeg, opt)
	}
	if err != nil {
		return record{}, err
	}

	res := record{
		Workload: w.name, Seed: opt.seed, Seconds: opt.measure.Seconds(), Calls: sum.calls,
		Go: runtime.Version(), Nproc: runtime.NumCPU(),
		result: result{
			Correct: sum.failed == 0, Attempted: sum.keys, Failed: sum.failed,
			Metrics: make(map[string]measure, len(defs)),
		},
	}
	if opt.trace {
		res.Trace = 1
	}
	fmt.Fprintf(log, "\n%s (seed %d, %s window, %d calls, %d keys, %d failed)\n",
		w.name, opt.seed, opt.measure, res.Calls, sum.keys, sum.failed)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return record{}, fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = measure{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "  %-32s %14.4f %-7s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if !opt.trace {
		for _, d := range printedOnly {
			fmt.Fprintf(log, "  %-32s %14.4f %-7s (%s is better; printed, not gated)\n", d.Name, values[d.Name], d.Unit, d.Better)
		}
	}
	return res, nil
}
