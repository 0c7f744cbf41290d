package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic dataset is 4; unbiased sample
	// variance is 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Observe(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var seq, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		seq.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(b)
	if a.N() != seq.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), seq.N())
	}
	if !almostEqual(a.Mean(), seq.Mean(), 1e-9) {
		t.Errorf("merged Mean = %v, want %v", a.Mean(), seq.Mean())
	}
	if !almostEqual(a.Variance(), seq.Variance(), 1e-9) {
		t.Errorf("merged Variance = %v, want %v", a.Variance(), seq.Variance())
	}
	if a.Min() != seq.Min() || a.Max() != seq.Max() {
		t.Errorf("merged Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), seq.Min(), seq.Max())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Observe(1)
	a.Observe(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != 2 || b.N() != 2 {
		t.Errorf("merge into empty: mean=%v n=%d", b.Mean(), b.N())
	}
}

// Property: mean is always within [min, max] and variance is non-negative.
func TestWelfordProperties(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		ok := true
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Observe(x)
			n++
		}
		if n == 0 {
			return true
		}
		ok = ok && w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
		ok = ok && w.Variance() >= 0
		ok = ok && w.N() == int64(n)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
