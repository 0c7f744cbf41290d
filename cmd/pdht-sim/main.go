// pdht-sim runs one message-level simulation of the paper's scenario and
// prints measured message rates, hit rates and index sizes next to the
// analytical model's prediction.
//
// Usage:
//
//	pdht-sim -strategy partialTTL -peers 2000 -keys 4000 [flags]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pdht/internal/churn"
	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/stats"
	"pdht/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pdht-sim:", err)
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
	fs := flag.NewFlagSet("pdht-sim", flag.ContinueOnError)
	base := sim.DefaultConfig()
	strategy := fs.String("strategy", "partialTTL", "noIndex | indexAll | partial | partialTTL | partialAdaptive | partialTopK")
	peers := fs.Int("peers", base.Peers, "total peers")
	keys := fs.Int("keys", base.Keys, "unique keys")
	stor := fs.Int("stor", base.Stor, "index storage per peer")
	repl := fs.Int("repl", base.Repl, "replication factor")
	alpha := fs.Float64("alpha", base.Alpha, "Zipf exponent")
	fQry := fs.Float64("fqry", base.FQry, "queries per peer per second")
	fUpd := fs.Float64("fupd", base.FUpd, "updates per key per second")
	env := fs.Float64("env", base.Env, "probe probability per routing entry per round")
	rounds := fs.Int("rounds", base.Rounds, "measured rounds")
	warmup := fs.Int("warmup", base.WarmupRounds, "warmup rounds (excluded from measurement)")
	keyTtl := fs.Int("keyttl", 0, "keyTtl in rounds (0 = derive 1/fMin from the model; partialAdaptive starts from 600 and retunes)")
	meanOn := fs.Float64("churn-online", 0, "mean online session length in rounds (0 = no churn)")
	meanOff := fs.Float64("churn-offline", 0, "mean offline time in rounds")
	shift := fs.Int("shift", 0, "round at which to shuffle the query distribution (0 = never)")
	trace := fs.Int("trace", 0, "emit a time-series sample every N rounds (0 = off)")
	topkK := fs.Int("topk-k", base.TopKK, "partialTopK: results per query")
	topkTerms := fs.Int("topk-terms", base.TopKTerms, "partialTopK: terms per query")
	topkGroups := fs.Int("topk-groups", base.TopKGroups, "partialTopK: term-group universe size")
	topkGroupSize := fs.Int("topk-group-size", base.TopKGroupSize, "partialTopK: terms per group")
	topkCopies := fs.Int("topk-copies", base.TopKCopies, "partialTopK: copy documents per group")
	topkUniform := fs.Bool("topk-uniform", false, "partialTopK: full-fan-out baseline instead of the adaptive planner")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *meanOff > 0 && *meanOn <= 0 {
		return usageError{fmt.Errorf("-churn-offline %v needs -churn-online: without it the network is static", *meanOff)}
	}

	cfg := base
	cfg.Peers, cfg.Keys, cfg.Stor, cfg.Repl = *peers, *keys, *stor, *repl
	cfg.Alpha, cfg.FQry, cfg.FUpd, cfg.Env = *alpha, *fQry, *fUpd, *env
	cfg.Rounds, cfg.WarmupRounds = *rounds, *warmup
	cfg.KeyTtl = *keyTtl
	cfg.TraceEvery = *trace
	cfg.TopKK, cfg.TopKTerms, cfg.TopKGroups = *topkK, *topkTerms, *topkGroups
	cfg.TopKGroupSize, cfg.TopKCopies, cfg.TopKUniform = *topkGroupSize, *topkCopies, *topkUniform
	cfg.Seed = *seed
	if *meanOn > 0 {
		cfg.Churn = churn.Model{MeanOnline: *meanOn, MeanOffline: *meanOff}
	}
	if *shift > 0 {
		cfg.Shifts = workload.Schedule{{Round: *shift, Kind: workload.ShiftShuffle}}
	}

	var err error
	if cfg.Strategy, err = sim.ParseStrategy(*strategy); err != nil {
		return usageError{err}
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	if res.ActivePeers > 0 {
		fmt.Fprintf(out, "strategy    %s over trie DHT\n", cfg.Strategy)
	} else {
		fmt.Fprintf(out, "strategy    %s\n", cfg.Strategy)
	}
	fmt.Fprintf(out, "network     %d peers, %d keys, repl %d, fQry %s\n",
		cfg.Peers, cfg.Keys, cfg.Repl, model.FormatFrequency(cfg.FQry))
	if res.ActivePeers > 0 {
		fmt.Fprintf(out, "DHT         %d active peers, keyTtl %d rounds\n", res.ActivePeers, res.KeyTtlUsed)
	}
	if res.ModelMsgPerRound > 0 {
		fmt.Fprintf(out, "measured    %.1f msg/round (model predicts %.1f, ratio %.2f)\n",
			res.MsgPerRound, res.ModelMsgPerRound, res.MsgPerRound/res.ModelMsgPerRound)
	} else {
		fmt.Fprintf(out, "measured    %.1f msg/round\n", res.MsgPerRound)
	}
	fmt.Fprintf(out, "queries     %d answered of %d, hit rate %.3f\n",
		res.Answered, res.Queries, res.HitRate)
	if cfg.Strategy == sim.StrategyPartialTopK && res.Queries > 0 {
		fmt.Fprintf(out, "top-k       %.1f wire legs/query, %.0f%% terminated early\n",
			res.TopKLegsPerQuery, 100*res.TopKEarlyRate)
	}
	if res.MeanIndexedKeys > 0 {
		fmt.Fprintf(out, "index       %.0f keys live on average (%.1f%% of key space)\n",
			res.MeanIndexedKeys, 100*res.IndexFraction())
	}

	tb := stats.NewTable("message breakdown", "class", "msg/round")
	for _, c := range stats.Classes() {
		if res.ByClass[c] > 0 {
			tb.AddRow(c.String(), res.ByClass[c])
		}
	}
	fmt.Fprintln(out)
	tb.Render(out)

	if len(res.Trace) > 0 {
		tr := stats.NewTable("time series", "round", "hit rate", "indexed", "msg/round")
		for _, tp := range res.Trace {
			tr.AddRow(tp.Round, tp.HitRate, tp.IndexedKeys, tp.MsgPerRound)
		}
		fmt.Fprintln(out)
		tr.Render(out)
	}
	return nil
}
