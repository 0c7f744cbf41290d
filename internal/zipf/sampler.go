package zipf

import "math/rand/v2"

// Sampler draws ranks from a Distribution using inverse-CDF sampling with a
// caller-supplied random source, so workloads are reproducible from a seed.
//
// A Sampler additionally supports a rank permutation, which the
// flash-crowd/shift workloads use to change *which* key holds each
// popularity rank without changing the popularity shape — the scenario the
// paper's selection algorithm must adapt to (§5.2, §6).
type Sampler struct {
	dist *Distribution
	rng  *rand.Rand
	perm []int // perm[rank-1] = key index in [0, keys); nil means identity
}

// NewSampler returns a sampler over d driven by rng. rng must not be shared
// with another concurrent consumer.
func NewSampler(d *Distribution, rng *rand.Rand) *Sampler {
	return &Sampler{dist: d, rng: rng}
}

// SampleRank draws a popularity rank in [1, keys].
func (s *Sampler) SampleRank() int {
	return s.dist.RankFor(s.rng.Float64())
}

// Sample draws a key index in [0, keys): the key currently occupying the
// sampled popularity rank under the active permutation.
func (s *Sampler) Sample() int {
	rank := s.SampleRank()
	if s.perm == nil {
		return rank - 1
	}
	return s.perm[rank-1]
}

// KeyAtRank returns the key index occupying the given rank under the active
// permutation. Rank is 1-based.
func (s *Sampler) KeyAtRank(rank int) int {
	if rank < 1 || rank > s.dist.Keys() {
		return -1
	}
	if s.perm == nil {
		return rank - 1
	}
	return s.perm[rank-1]
}

// Shuffle installs a fresh uniformly random rank→key permutation, modelling a
// complete change in query popularity (every key gets a new rank).
func (s *Sampler) Shuffle() {
	n := s.dist.Keys()
	if s.perm == nil {
		s.perm = make([]int, n)
		for i := range s.perm {
			s.perm[i] = i
		}
	}
	s.rng.Shuffle(n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
}

// ShiftHead rotates the keys occupying the top n ranks by one position,
// modelling a gradual popularity drift: yesterday's #1 becomes #n, everyone
// else moves up one. n is clamped to [2, keys]; n < 2 is a no-op.
func (s *Sampler) ShiftHead(n int) {
	keys := s.dist.Keys()
	if n > keys {
		n = keys
	}
	if n < 2 {
		return
	}
	if s.perm == nil {
		s.perm = make([]int, keys)
		for i := range s.perm {
			s.perm[i] = i
		}
	}
	first := s.perm[0]
	copy(s.perm[0:n-1], s.perm[1:n])
	s.perm[n-1] = first
}
