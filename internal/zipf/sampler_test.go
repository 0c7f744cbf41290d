package zipf

import (
	"math"
	"math/rand/v2"
	"testing"
)

func newTestSampler(alpha float64, keys int, seed uint64) *Sampler {
	return NewSampler(MustNew(alpha, keys), rand.New(rand.NewPCG(seed, seed^0x9e3779b9)))
}

func TestSamplerMatchesPMF(t *testing.T) {
	s := newTestSampler(1.2, 100, 7)
	const n = 200000
	counts := make([]int, 101)
	for i := 0; i < n; i++ {
		counts[s.SampleRank()]++
	}
	d := MustNew(1.2, 100)
	// Compare empirical frequency with PMF for the head ranks, where
	// counts are large enough for a tight bound.
	for r := 1; r <= 10; r++ {
		want := d.PMF(r)
		got := float64(counts[r]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v vs PMF %v", r, got, want)
		}
	}
	// And the head mass of the top 10 ranks.
	var head float64
	for r := 1; r <= 10; r++ {
		head += float64(counts[r]) / n
	}
	if math.Abs(head-d.HeadMass(10)) > 0.01 {
		t.Errorf("head mass empirical %v vs %v", head, d.HeadMass(10))
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := newTestSampler(1.2, 1000, 42)
	b := newTestSampler(1.2, 1000, 42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Sample(), b.Sample(); x != y {
			t.Fatalf("sample %d diverged: %d vs %d", i, x, y)
		}
	}
}

func TestSampleIdentityMapping(t *testing.T) {
	s := newTestSampler(1.2, 50, 3)
	for i := 0; i < 500; i++ {
		k := s.Sample()
		if k < 0 || k >= 50 {
			t.Fatalf("sample %d out of range", k)
		}
	}
	if s.KeyAtRank(1) != 0 || s.KeyAtRank(50) != 49 {
		t.Error("identity mapping should map rank r to key r-1")
	}
	if s.KeyAtRank(0) != -1 || s.KeyAtRank(51) != -1 {
		t.Error("out-of-range rank should map to -1")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := newTestSampler(1.2, 200, 11)
	s.Shuffle()
	seen := make(map[int]bool, 200)
	for r := 1; r <= 200; r++ {
		k := s.KeyAtRank(r)
		if k < 0 || k >= 200 {
			t.Fatalf("KeyAtRank(%d) = %d out of range", r, k)
		}
		if seen[k] {
			t.Fatalf("key %d appears twice after Shuffle", k)
		}
		seen[k] = true
	}
}

func TestShuffleChangesHead(t *testing.T) {
	s := newTestSampler(1.2, 10000, 5)
	before := s.KeyAtRank(1)
	s.Shuffle()
	// With 10,000 keys the probability the same key keeps rank 1 is 1e-4;
	// with this fixed seed it does not.
	if s.KeyAtRank(1) == before {
		t.Error("Shuffle left rank 1 unchanged (astronomically unlikely with this seed)")
	}
}

func TestShiftHeadRotates(t *testing.T) {
	s := newTestSampler(1.2, 10, 1)
	s.ShiftHead(4)
	// Identity [0 1 2 3 ...] rotated in the head: rank1→key1, rank2→key2,
	// rank3→key3, rank4→key0, tail unchanged.
	want := []int{1, 2, 3, 0, 4, 5, 6, 7, 8, 9}
	for r := 1; r <= 10; r++ {
		if got := s.KeyAtRank(r); got != want[r-1] {
			t.Errorf("after ShiftHead(4): KeyAtRank(%d) = %d, want %d", r, got, want[r-1])
		}
	}
	// Rotating the full head n times restores identity.
	s2 := newTestSampler(1.2, 6, 1)
	for i := 0; i < 6; i++ {
		s2.ShiftHead(6)
	}
	for r := 1; r <= 6; r++ {
		if s2.KeyAtRank(r) != r-1 {
			t.Errorf("6 rotations of 6: KeyAtRank(%d) = %d, want %d", r, s2.KeyAtRank(r), r-1)
		}
	}
}

func TestShiftHeadDegenerate(t *testing.T) {
	s := newTestSampler(1.2, 5, 1)
	s.ShiftHead(1) // no-op
	s.ShiftHead(0)
	s.ShiftHead(-3)
	for r := 1; r <= 5; r++ {
		if s.KeyAtRank(r) != r-1 {
			t.Error("ShiftHead(n<2) must be a no-op")
		}
	}
	s.ShiftHead(99) // clamped to keys
	if s.KeyAtRank(5) != 0 {
		t.Error("ShiftHead clamps n to keys and rotates")
	}
}

func BenchmarkSampleRank(b *testing.B) {
	s := newTestSampler(1.2, 40000, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SampleRank()
	}
}
