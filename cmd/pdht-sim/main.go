// pdht-sim runs one message-level simulation of the paper's scenario and
// prints measured message rates, hit rates and index sizes next to the
// analytical model's prediction.
//
// Usage:
//
//	pdht-sim -strategy partialTTL -peers 2000 -keys 4000 [flags]
package main

import (
	"flag"
	"fmt"
	"os"

	"pdht/internal/churn"
	"pdht/internal/model"
	"pdht/internal/sim"
	"pdht/internal/stats"
	"pdht/internal/workload"
)

func main() {
	base := sim.DefaultConfig()
	strategy := flag.String("strategy", "partialTTL", "noIndex | indexAll | partial | partialTTL | partialAdaptive | partialTopK")
	peers := flag.Int("peers", base.Peers, "total peers")
	keys := flag.Int("keys", base.Keys, "unique keys")
	stor := flag.Int("stor", base.Stor, "index storage per peer")
	repl := flag.Int("repl", base.Repl, "replication factor")
	alpha := flag.Float64("alpha", base.Alpha, "Zipf exponent")
	fQry := flag.Float64("fqry", base.FQry, "queries per peer per second")
	fUpd := flag.Float64("fupd", base.FUpd, "updates per key per second")
	env := flag.Float64("env", base.Env, "probe probability per routing entry per round")
	rounds := flag.Int("rounds", base.Rounds, "measured rounds")
	warmup := flag.Int("warmup", base.WarmupRounds, "warmup rounds (excluded from measurement)")
	keyTtl := flag.Int("keyttl", 0, "keyTtl in rounds (0 = derive 1/fMin from the model)")
	selfTune := flag.Bool("selftune", false, "self-tune keyTtl online instead of using the model")
	meanOn := flag.Float64("churn-online", 0, "mean online session length in rounds (0 = no churn)")
	meanOff := flag.Float64("churn-offline", 0, "mean offline time in rounds")
	shift := flag.Int("shift", 0, "round at which to shuffle the query distribution (0 = never)")
	trace := flag.Int("trace", 0, "emit a time-series sample every N rounds (0 = off)")
	topkK := flag.Int("topk-k", base.TopKK, "partialTopK: results per query")
	topkTerms := flag.Int("topk-terms", base.TopKTerms, "partialTopK: terms per query")
	topkGroups := flag.Int("topk-groups", base.TopKGroups, "partialTopK: term-group universe size")
	topkGroupSize := flag.Int("topk-group-size", base.TopKGroupSize, "partialTopK: terms per group")
	topkCopies := flag.Int("topk-copies", base.TopKCopies, "partialTopK: copy documents per group")
	topkUniform := flag.Bool("topk-uniform", false, "partialTopK: full-fan-out baseline instead of the adaptive planner")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	cfg := base
	cfg.Peers, cfg.Keys, cfg.Stor, cfg.Repl = *peers, *keys, *stor, *repl
	cfg.Alpha, cfg.FQry, cfg.FUpd, cfg.Env = *alpha, *fQry, *fUpd, *env
	cfg.Rounds, cfg.WarmupRounds = *rounds, *warmup
	cfg.KeyTtl, cfg.SelfTuneTTL = *keyTtl, *selfTune
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("strategy    %s over trie DHT\n", cfg.Strategy)
	fmt.Printf("network     %d peers, %d keys, repl %d, fQry %s\n",
		cfg.Peers, cfg.Keys, cfg.Repl, model.FormatFrequency(cfg.FQry))
	if res.ActivePeers > 0 {
		fmt.Printf("DHT         %d active peers, keyTtl %d rounds\n", res.ActivePeers, res.KeyTtlUsed)
	}
	if res.ModelMsgPerRound > 0 {
		fmt.Printf("measured    %.1f msg/round (model predicts %.1f, ratio %.2f)\n",
			res.MsgPerRound, res.ModelMsgPerRound, res.MsgPerRound/res.ModelMsgPerRound)
	} else {
		fmt.Printf("measured    %.1f msg/round\n", res.MsgPerRound)
	}
	fmt.Printf("queries     %d answered of %d, hit rate %.3f\n",
		res.Answered, res.Queries, res.HitRate)
	if cfg.Strategy == sim.StrategyPartialTopK && res.Queries > 0 {
		fmt.Printf("top-k       %.1f wire legs/query, %.0f%% terminated early\n",
			res.TopKLegsPerQuery, 100*res.TopKEarlyRate)
	}
	if res.MeanIndexedKeys > 0 {
		fmt.Printf("index       %.0f keys live on average (%.1f%% of key space)\n",
			res.MeanIndexedKeys, 100*res.IndexFraction())
	}

	tb := stats.NewTable("message breakdown", "class", "msg/round")
	for _, c := range stats.Classes() {
		if res.ByClass[c] > 0 {
			tb.AddRow(c.String(), res.ByClass[c])
		}
	}
	fmt.Println()
	tb.Render(os.Stdout)

	if len(res.Trace) > 0 {
		tr := stats.NewTable("time series", "round", "hit rate", "indexed", "msg/round")
		for _, tp := range res.Trace {
			tr.AddRow(tp.Round, tp.HitRate, tp.IndexedKeys, tp.MsgPerRound)
		}
		fmt.Println()
		tr.Render(os.Stdout)
	}
}
