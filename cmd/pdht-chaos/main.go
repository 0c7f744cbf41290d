// Command pdht-chaos boots an in-process fleet of live pdht nodes over a
// fault-injecting transport, plays a scripted fault schedule against it,
// and prints the outcome — convergence times against the computed gossip
// bound, the entry-accounting verdict (lost / resurrected / held),
// placement agreement, handoff traffic and the adaptive tuner's deviation
// from the fitted model — as one JSON object on stdout.
//
// The schedule mini-language is shared with the container harness
// (deploy/chaos): comma-separated `phase=duration` tokens where phase is
// `healthy`, `heal`, `splitK`, `onewayK`, `dropPCT`, or combinations
// joined with `+`:
//
//	pdht-chaos -n 128 -schedule "healthy=2s,drop20+split3=10s,heal=30s"
//	pdht-chaos -n 1000 -drop 0.02 -latency 1ms -jitter 2ms -adaptive
//
// Exit status is 0 only if the fleet converged within the bound with zero
// entries lost or resurrected and no double-owned keys — the same
// acceptance the nightly chaos CI job enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pdht/internal/chaos"
	"pdht/internal/node"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pdht-chaos:", err)
		os.Exit(1)
	}
}

// run is main with its environment abstracted so tests can drive the real
// flag-to-report path.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("pdht-chaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		n        = fs.Int("n", 128, "fleet size: live nodes booted in this process")
		seed     = fs.Uint64("seed", 1, "chaos seed: all drop, jitter and duplicate draws derive from it")
		schedule = fs.String("schedule", "healthy=1s,drop20+split3=5s,heal=0s", "fault schedule (phase=duration tokens; trailing benign phase bounds the heal wait, 0 = computed bound)")
		drop     = fs.Float64("drop", 0, "baseline per-leg drop probability applied in every phase")
		latency  = fs.Duration("latency", 0, "baseline one-way latency added to every delivery")
		jitter   = fs.Duration("jitter", 0, "uniform extra latency in [0, jitter) per delivery")
		entries  = fs.Int("entries", 64, "accounting ledger size (half long-lived for loss detection, half expiring for resurrection detection); 0 disables")
		workers  = fs.Int("workers", 0, "concurrent Zipf query workers driving live load through the scenario")
		keys     = fs.Int("keys", 512, "workload key population for -workers")
		adaptive = fs.Bool("adaptive", false, "run every node's query-adaptive control plane and report the tuner envelope")
		retune   = fs.Duration("retune-interval", 2*time.Second, "adaptive refit period with -adaptive")
		bootWait = fs.Duration("boot-timeout", 0, "initial convergence deadline (0: 60s + 50ms per node)")
		quiet    = fs.Bool("quiet", false, "suppress phase and convergence progress lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := chaos.ParseSchedule(*schedule)
	if err != nil {
		return err
	}

	cfg := chaos.RunConfig{
		N: *n,
		Chaos: chaos.Config{
			Seed:          *seed,
			Drop:          *drop,
			LatencyBase:   *latency,
			LatencyJitter: *jitter,
		},
		Scenario:     scenario,
		Entries:      *entries,
		Workload:     *workers,
		WorkloadKeys: *keys,
		BootTimeout:  *bootWait,
	}
	if *adaptive {
		// MaintainEnv > 0: fMin is finite, so the envelope is not TTLMax twice.
		cfg.Node = node.Config{Adaptive: true, RetuneInterval: *retune, MaintainEnv: 0.05}
		// The per-node sketch footprint must stay small when hundreds of
		// tuners share one process.
		cfg.Node.Tuner.SketchWidth = 1 << 10
		cfg.Node.Tuner.TopK = 64
		cfg.Node.Tuner.DistinctBits = 1 << 12
	}
	if !*quiet {
		cfg.OnPhase = func(p chaos.Phase) {
			fmt.Fprintf(errw, "phase %s for %s\n", p.Name, p.Duration)
		}
		cfg.OnProgress = func(elapsed time.Duration, p chaos.ProgressSnapshot) {
			fmt.Fprintf(errw, "  t=%s members %d..%d, %d distinct views\n",
				elapsed.Round(time.Second), p.MinMembers, p.MaxMembers, p.DistinctViews)
		}
	}

	rep, err := chaos.Run(cfg)
	if rep != nil {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(rep); encErr != nil && err == nil {
			err = encErr
		}
	}
	if err != nil {
		return err
	}
	switch {
	case !rep.Converged:
		return fmt.Errorf("fleet did not re-converge after heal (waited %s)", rep.HealConverge.Round(time.Millisecond))
	case !rep.WithinBound:
		return fmt.Errorf("heal convergence %s exceeded the computed bound %s", rep.HealConverge.Round(time.Millisecond), rep.Bound.Round(time.Millisecond))
	case rep.Accounting.Lost > 0 || rep.Accounting.Resurrected > 0:
		return fmt.Errorf("entry accounting failed: %d lost, %d resurrected", rep.Accounting.Lost, rep.Accounting.Resurrected)
	case rep.PlacementDisagreements > 0:
		return fmt.Errorf("%d of %d sampled keys double-owned after convergence", rep.PlacementDisagreements, rep.PlacementSamples)
	}
	return nil
}
