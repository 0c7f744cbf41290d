// pdht-model evaluates the paper's analytical cost model (Sections 2–5)
// and prints the series behind Table 1 and Figures 1–4, plus the keyTtl
// sensitivity analysis, for any scenario.
//
// Usage:
//
//	pdht-model [flags]
//
// With no flags it reproduces the paper's sample scenario exactly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pdht/internal/experiments"
	"pdht/internal/model"
	"pdht/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pdht-model:", err)
	}
	os.Exit(exitCode(err))
}

// usageError marks a command line that cannot be run, as opposed to a run
// that failed.
type usageError struct{ error }

// exitCode is 0 for a clean run (or -h), 2 for a usage error, 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// run is main with its environment abstracted, so the test can drive the
// binary's real code path.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdht-model", flag.ContinueOnError)
	base := model.DefaultScenario()
	peers := fs.Int("peers", base.NumPeers, "total number of peers (numPeers)")
	keys := fs.Int("keys", base.Keys, "number of unique keys")
	stor := fs.Int("stor", base.Stor, "index storage capacity per peer")
	repl := fs.Int("repl", base.Repl, "replication factor")
	alpha := fs.Float64("alpha", base.Alpha, "Zipf exponent of the query distribution")
	fQry := fs.Float64("fqry", base.FQry, "queries per peer per second")
	fUpd := fs.Float64("fupd", base.FUpd, "updates per key per second")
	env := fs.Float64("env", base.Env, "route maintenance constant")
	dup := fs.Float64("dup", base.Dup, "duplication factor of unstructured search")
	dup2 := fs.Float64("dup2", base.Dup2, "duplication factor of replica-subnet floods")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	p := model.Params{
		NumPeers: *peers, Keys: *keys, Stor: *stor, Repl: *repl,
		Alpha: *alpha, FQry: *fQry, FUpd: *fUpd, Env: *env,
		Dup: *dup, Dup2: *dup2,
	}
	if err := p.Validate(); err != nil {
		return usageError{err}
	}

	experiments.Table1(p).Render(out)
	fmt.Fprintln(out)

	sol, err := model.Solve(p, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "At fQry = %s: cSUnstr = %.1f msg, cSIndx = %.2f msg, cIndKey = %.4f msg/s\n",
		model.FormatFrequency(p.FQry), sol.CSUnstr, sol.CSIndx, sol.CIndKey)
	fmt.Fprintf(out, "fMin = %.3g queries/round → %d of %d keys worth indexing (pIndxd = %.3f)\n\n",
		sol.FMin, sol.MaxRank, p.Keys, sol.PIndxd)

	fig1, _, err1 := experiments.Fig1(p)
	fig2, _, err2 := experiments.Fig2(p)
	fig3, _, err3 := experiments.Fig3(p)
	fig4, _, err4 := experiments.Fig4(p)
	sens, _, err5 := experiments.TTLSens(p)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			return err
		}
	}
	for i, t := range []*stats.Table{fig1, fig2, fig3, fig4, sens} {
		if i > 0 {
			fmt.Fprintln(out)
		}
		t.Render(out)
	}
	return nil
}
