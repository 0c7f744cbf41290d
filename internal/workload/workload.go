// Package workload generates the traffic the paper's scenario prescribes:
// Zipf-distributed queries at fQry per peer per round, uniform updates at
// fUpd per key per round, and the query-distribution shifts ("the
// popularity of keys can change dramatically over time", §1) that the
// selection algorithm must adapt to. QueryGen and UpdateGen are the steady
// generators; ShiftEvent and Schedule script the mid-run popularity
// changes.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pdht/internal/netsim"
	"pdht/internal/zipf"
)

// Query is one query event: Origin asks for the key currently at popularity
// rank Rank, which is key index Key.
type Query struct {
	Origin netsim.PeerID
	Rank   int
	Key    int
}

// QueryGen draws each round's queries. The number of queries per round is
// Poisson(numPeers·fQry) — the aggregate of many rare per-peer events —
// and each query picks a uniform origin and a Zipf-ranked key.
type QueryGen struct {
	sampler  *zipf.Sampler
	numPeers int
	fQry     float64
	rng      *rand.Rand
}

// NewQueryGen returns a generator over the sampler's key universe.
func NewQueryGen(sampler *zipf.Sampler, numPeers int, fQry float64, rng *rand.Rand) (*QueryGen, error) {
	if numPeers < 1 {
		return nil, fmt.Errorf("workload: numPeers %d must be positive", numPeers)
	}
	if fQry < 0 || math.IsNaN(fQry) || math.IsInf(fQry, 0) {
		return nil, fmt.Errorf("workload: fQry %v must be non-negative and finite", fQry)
	}
	return &QueryGen{sampler: sampler, numPeers: numPeers, fQry: fQry, rng: rng}, nil
}

// Sampler exposes the underlying Zipf sampler, so scenarios can shift the
// distribution between rounds.
func (g *QueryGen) Sampler() *zipf.Sampler { return g.sampler }

// Round returns this round's queries. The slice is reused across calls;
// callers must not retain it.
func (g *QueryGen) Round(buf []Query) []Query {
	n := Poisson(g.rng, float64(g.numPeers)*g.fQry)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		rank := g.sampler.SampleRank()
		buf = append(buf, Query{
			Origin: netsim.PeerID(g.rng.IntN(g.numPeers)),
			Rank:   rank,
			Key:    g.sampler.KeyAtRank(rank),
		})
	}
	return buf
}

// Update is one update event for a key index.
type Update struct {
	Key int
}

// UpdateGen draws each round's key updates: Poisson(keys·fUpd) per round,
// each hitting a uniformly random key (the paper updates every article
// about once a day, regardless of popularity).
type UpdateGen struct {
	keys int
	fUpd float64
	rng  *rand.Rand
}

// NewUpdateGen returns an update generator over keys key indices.
func NewUpdateGen(keys int, fUpd float64, rng *rand.Rand) (*UpdateGen, error) {
	if keys < 1 {
		return nil, fmt.Errorf("workload: keys %d must be positive", keys)
	}
	if fUpd < 0 || math.IsNaN(fUpd) || math.IsInf(fUpd, 0) {
		return nil, fmt.Errorf("workload: fUpd %v must be non-negative and finite", fUpd)
	}
	return &UpdateGen{keys: keys, fUpd: fUpd, rng: rng}, nil
}

// Round returns this round's updates, reusing buf.
func (g *UpdateGen) Round(buf []Update) []Update {
	n := Poisson(g.rng, float64(g.keys)*g.fUpd)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, Update{Key: g.rng.IntN(g.keys)})
	}
	return buf
}

// Poisson draws from a Poisson distribution with the given mean. Knuth's
// product method serves small means; large means (busy rounds have
// λ ≈ 667) use the normal approximation, which is accurate to well under a
// percent there and O(1).
func Poisson(rng *rand.Rand, lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
}

// ShiftKind selects how a distribution shift rearranges key popularity.
type ShiftKind int

const (
	// ShiftShuffle assigns every key a brand-new random rank — the
	// "query distribution changes dramatically" case.
	ShiftShuffle ShiftKind = iota
	// ShiftRotateHead rotates the top-N ranks by one: a gradual drift
	// where yesterday's hottest key falls to rank N.
	ShiftRotateHead
)

// ShiftEvent is a scheduled change of the query distribution.
type ShiftEvent struct {
	Round int
	Kind  ShiftKind
	// HeadSize is the N of ShiftRotateHead; ignored for ShiftShuffle.
	HeadSize int
}

// Schedule is a round-ordered list of shift events.
type Schedule []ShiftEvent

// Apply executes every event scheduled for the given round against the
// sampler and reports how many fired.
func (s Schedule) Apply(round int, sampler *zipf.Sampler) int {
	fired := 0
	for _, ev := range s {
		if ev.Round != round {
			continue
		}
		switch ev.Kind {
		case ShiftShuffle:
			sampler.Shuffle()
		case ShiftRotateHead:
			sampler.ShiftHead(ev.HeadSize)
		}
		fired++
	}
	return fired
}
