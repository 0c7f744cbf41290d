// Package zipf implements the Zipf query-popularity distribution the paper
// assumes throughout (eq. 3): the probability of a query for the key at
// position rank is rank^−α normalized over the `keys` unique keys in the
// system. α = 1.2 is the value observed for Gnutella queries [Srip01] and is
// the paper's default.
//
// The package provides both the exact distribution (PMF, CDF, head mass —
// the sums behind equations 3, 5, 14 and 15) and a deterministic inverse-CDF
// sampler used by the workload generators. Everything is precomputed at
// construction: with the paper's 40,000 keys a Distribution costs two
// float64 slices and all queries are O(1) or O(log keys).
package zipf

import (
	"fmt"
	"math"
)

// Distribution is a Zipf distribution over ranks 1..Keys() with exponent
// Alpha(). It is immutable after construction and safe for concurrent use.
type Distribution struct {
	alpha   float64
	keys    int
	weights []float64 // weights[i] = (i+1)^-alpha
	cum     []float64 // cum[i] = sum of weights[0..i]
	norm    float64   // cum[keys-1], the generalized harmonic number H(keys, alpha)
}

// New returns the Zipf distribution with the given exponent over keys ranks.
// alpha may be any non-negative value (alpha = 0 is the uniform
// distribution); keys must be positive.
func New(alpha float64, keys int) (*Distribution, error) {
	if keys <= 0 {
		return nil, fmt.Errorf("zipf: keys must be positive, got %d", keys)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("zipf: alpha must be a non-negative finite number, got %v", alpha)
	}
	d := &Distribution{
		alpha:   alpha,
		keys:    keys,
		weights: make([]float64, keys),
		cum:     make([]float64, keys),
	}
	var sum float64
	for i := 0; i < keys; i++ {
		w := math.Pow(float64(i+1), -alpha)
		d.weights[i] = w
		sum += w
		d.cum[i] = sum
	}
	d.norm = sum
	return d, nil
}

// MustNew is New for statically known-good parameters; it panics on error.
func MustNew(alpha float64, keys int) *Distribution {
	d, err := New(alpha, keys)
	if err != nil {
		panic(err)
	}
	return d
}

// Alpha returns the exponent.
func (d *Distribution) Alpha() float64 { return d.alpha }

// Keys returns the number of ranks.
func (d *Distribution) Keys() int { return d.keys }

// PMF returns the probability of a query for the key at the given rank
// (eq. 3). Ranks are 1-based, following the paper; out-of-range ranks have
// probability 0.
func (d *Distribution) PMF(rank int) float64 {
	if rank < 1 || rank > d.keys {
		return 0
	}
	return d.weights[rank-1] / d.norm
}

// CDF returns the probability that a query targets rank ≤ the given rank.
// CDF(0) = 0 and CDF(keys) = 1.
func (d *Distribution) CDF(rank int) float64 {
	if rank < 1 {
		return 0
	}
	if rank >= d.keys {
		return 1
	}
	return d.cum[rank-1] / d.norm
}

// HeadMass returns the probability that a query targets one of the maxRank
// most popular keys: Σ_{x≤maxRank} x^−α / Σ_{x≤keys} x^−α. This is exactly
// pIndxd of eq. 5 when maxRank keys are indexed.
func (d *Distribution) HeadMass(maxRank int) float64 { return d.CDF(maxRank) }

// QueryProb is eq. 4: the probability that the key at rank is queried at
// least once per round, given that all peers together send totalQueries
// Zipf-distributed queries per round. totalQueries = numPeers · fQry and need
// not be an integer.
func (d *Distribution) QueryProb(rank int, totalQueries float64) float64 {
	p := d.PMF(rank)
	if p == 0 || totalQueries <= 0 {
		return 0
	}
	// 1 − (1−p)^q, computed via expm1/log1p to stay accurate when p is
	// tiny (deep-tail ranks) and q is large (busy rounds).
	return -math.Expm1(totalQueries * math.Log1p(-p))
}

// RankFor returns the smallest rank whose CDF is ≥ u, for u in [0,1]. It is
// the inverse-CDF used by the sampler and exposed for tests.
func (d *Distribution) RankFor(u float64) int {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		return d.keys
	}
	target := u * d.norm
	// Binary search for the first cum[i] ≥ target.
	lo, hi := 0, d.keys-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
