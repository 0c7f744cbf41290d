package topk

import (
	"context"
	"math"
	"sort"
)

// A Call is one probe of a round: Req for the peer at Addr, and once the
// round is answered, its Resp or Err.
type Call struct {
	Addr string
	Req  Req
	Resp Resp
	Err  error
}

// RoundFunc answers one round of probes: it fills in every call's Resp or
// Err. The coordinator treats an error like a broadcast treats silence: the
// peer contributes nothing and stops holding the threshold bound up —
// content replication at the other holders keeps the answer correct, which
// is the round protocol's failover story.
type RoundFunc func(ctx context.Context, calls []Call)

// RunConfig parameterizes one coordinated top-k query.
type RunConfig struct {
	// K is how many results the caller wants.
	K int
	// Terms and Weights define the scoring scale; nil Weights means
	// uniform 1. Weights travel with every probe so all peers score
	// against the coordinator's scale.
	Terms   []uint64
	Weights []float64
	// Plan is the probe schedule (Planner.Plan or UniformPlan).
	Plan Plan
}

// RoundInfo is one round's summary, delivered to the OnRound hook for
// trace legs and logs.
type RoundInfo struct {
	Round      int
	Legs       int // wire legs issued this round
	Candidates int
	// Kth is the k-th best candidate score after the round; -Inf while
	// fewer than K candidates exist. Bound is the threshold the query
	// must meet to terminate.
	Kth   float64
	Bound float64
}

// Result is one resolved top-k query.
type Result struct {
	// Entries are the k best documents, (score desc, doc asc); fewer when
	// the whole cluster holds fewer matches. Sources aligns with it: the
	// peer whose probe reported the entry's winning score — whom a planner
	// credits for the answer.
	Entries []Entry
	Sources []string
	// Rounds and Legs measure the protocol: probe rounds run and wire
	// legs paid (local self-scans are free).
	Rounds int
	Legs   int
	// Probed/Skipped/Failed partition the plan: peers contacted, peers
	// never probed because the bound was met first, probes that errored.
	Probed  int
	Skipped int
	Failed  int
	// Candidates is the final size of the candidate set — the heap the
	// pdht_topk_candidates gauge reports.
	Candidates int
	// Early reports that the threshold test stopped the query before
	// every peer was drained — the traffic the protocol saved.
	Early bool
}

// Run executes the threshold-algorithm round protocol. Each round probes
// the next batch of the plan (the batch doubles every round) and deepens
// already-probed peers whose unsent entries could still displace the k-th
// candidate, all in one call of answer; after merging, the query
// terminates as soon as the k-th candidate's score meets the threshold
// bound. onRound may be nil.
//
// Scores merge under max-aggregation: replicas of a document report the
// same local score, so the merged candidate keeps the best report and
// duplicates collapse. A canceled ctx stops probing and returns the best
// answer assembled so far.
func Run(ctx context.Context, cfg RunConfig, answer RoundFunc, onRound func(RoundInfo)) Result {
	var res Result
	k := cfg.K
	if k > MaxK {
		k = MaxK
	}
	probes := cfg.Plan.Probes
	if k <= 0 || len(probes) == 0 || len(cfg.Terms) == 0 {
		return res
	}

	// maxScore = Σ positive weights: the best any document can score, and
	// the bound an unprobed peer holds over the query.
	maxScore := 0.0
	if len(cfg.Weights) == 0 {
		n := len(cfg.Terms)
		if n > MaxTerms {
			n = MaxTerms
		}
		maxScore = float64(n)
	} else {
		for i, w := range cfg.Weights {
			if i >= MaxTerms {
				break
			}
			if w > 0 && !math.IsInf(w, 0) {
				maxScore += w
			}
		}
	}

	type peerState struct {
		probed bool
		dead   bool
		offset int
		more   float64 // upper bound on this peer's unseen entries
	}
	st := make([]peerState, len(probes))
	for i := range st {
		st[i].more = maxScore
	}
	cand := make(map[uint64]candidate)

	batch := cfg.Plan.FirstBatch
	if batch < 1 {
		batch = 1
	}
	for {
		kth := kthScore(cand, k)
		bound := 0.0
		for i := range st {
			if !st[i].dead && st[i].more > bound {
				bound = st[i].more
			}
		}
		if len(cand) >= k && kth >= bound {
			for i := range st {
				if !st[i].dead && (!st[i].probed || st[i].more > 0) {
					res.Early = true
					break
				}
			}
			break
		}

		// Schedule: deepen peers whose unsent entries could still matter,
		// then open the next batch of unprobed peers.
		var round []int
		for i := range st {
			if st[i].probed && !st[i].dead && st[i].more > 0 &&
				(len(cand) < k || st[i].more > kth) {
				round = append(round, i)
			}
		}
		opened := 0
		for i := range st {
			if !st[i].probed && opened < batch {
				round = append(round, i)
				opened++
			}
		}
		if len(round) == 0 || ctx.Err() != nil {
			break
		}

		calls := make([]Call, len(round))
		for j, idx := range round {
			calls[j] = Call{Addr: probes[idx].Addr, Req: Req{
				Terms:   cfg.Terms,
				Weights: cfg.Weights,
				K:       probes[idx].K,
				Offset:  st[idx].offset,
			}}
		}
		answer(ctx, calls)

		legs := 0
		for j, idx := range round {
			s := &st[idx]
			s.probed = true
			if !probes[idx].Local {
				legs++
			}
			if calls[j].Err != nil {
				s.dead = true
				s.more = 0
				res.Failed++
				continue
			}
			resp := calls[j].Resp
			for _, e := range resp.Entries {
				if cur, ok := cand[e.Doc]; !ok || e.Score > cur.score {
					cand[e.Doc] = candidate{e.Score, probes[idx].Addr}
				}
			}
			s.offset += len(resp.Entries)
			s.more = resp.More
			if s.more < 0 || math.IsNaN(s.more) {
				s.more = 0
			}
			if s.more > maxScore { // a lying peer cannot hold the bound up
				s.more = maxScore
			}
		}
		res.Rounds++
		res.Legs += legs
		batch *= 2

		if onRound != nil {
			onRound(RoundInfo{
				Round:      res.Rounds,
				Legs:       legs,
				Candidates: len(cand),
				Kth:        kthScore(cand, k),
				Bound:      bound,
			})
		}
	}

	for i := range st {
		if st[i].probed {
			res.Probed++
		} else {
			res.Skipped++
		}
	}
	res.Candidates = len(cand)

	all := make([]Entry, 0, len(cand))
	for doc, c := range cand {
		all = append(all, Entry{Doc: doc, Score: c.score})
	}
	sortEntries(all)
	if len(all) > k {
		all = all[:k]
	}
	res.Entries = all
	res.Sources = make([]string, len(all))
	for i, e := range all {
		res.Sources[i] = cand[e.Doc].source
	}
	return res
}

// candidate is one document's merged state: its best reported score and
// the peer that reported it.
type candidate struct {
	score  float64
	source string
}

// kthScore returns the k-th best candidate score, or -Inf while fewer
// than k candidates exist.
func kthScore(cand map[uint64]candidate, k int) float64 {
	if len(cand) < k {
		return math.Inf(-1)
	}
	scores := make([]float64, 0, len(cand))
	for _, c := range cand {
		scores = append(scores, c.score)
	}
	// Selection by full sort: candidate sets are a few times k.
	sort.Float64s(scores)
	return scores[len(scores)-k]
}
