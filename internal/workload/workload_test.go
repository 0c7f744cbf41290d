package workload

import (
	"math"
	"math/rand/v2"
	"testing"

	"pdht/internal/zipf"
)

func testRng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xbeef))
}

func TestPoissonMeanAndVariance(t *testing.T) {
	rng := testRng(1)
	for _, lambda := range []float64{0.5, 5, 29.9, 100, 667} {
		var sum, sumSq float64
		const n = 20000
		for i := 0; i < n; i++ {
			x := float64(Poisson(rng, lambda))
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.2 {
			t.Errorf("λ=%v: mean = %v", lambda, mean)
		}
		// Poisson variance equals the mean.
		if math.Abs(variance-lambda) > 0.15*lambda+0.5 {
			t.Errorf("λ=%v: variance = %v", lambda, variance)
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	rng := testRng(2)
	if Poisson(rng, 0) != 0 || Poisson(rng, -5) != 0 {
		t.Error("non-positive λ must yield 0")
	}
}

func TestQueryGenValidation(t *testing.T) {
	s := zipf.NewSampler(zipf.MustNew(1.2, 10), testRng(3))
	if _, err := NewQueryGen(s, 0, 0.1, testRng(3)); err == nil {
		t.Error("numPeers=0 accepted")
	}
	if _, err := NewQueryGen(s, 10, -1, testRng(3)); err == nil {
		t.Error("negative fQry accepted")
	}
	if _, err := NewQueryGen(s, 10, math.Inf(1), testRng(3)); err == nil {
		t.Error("infinite fQry accepted")
	}
}

func TestQueryGenRate(t *testing.T) {
	s := zipf.NewSampler(zipf.MustNew(1.2, 1000), testRng(4))
	g, err := NewQueryGen(s, 2000, 1.0/30.0, testRng(5))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	const rounds = 300
	var buf []Query
	for r := 0; r < rounds; r++ {
		buf = g.Round(buf)
		total += len(buf)
		for _, q := range buf {
			if q.Origin < 0 || int(q.Origin) >= 2000 {
				t.Fatalf("origin %d out of range", q.Origin)
			}
			if q.Rank < 1 || q.Rank > 1000 || q.Key < 0 || q.Key >= 1000 {
				t.Fatalf("bad query %+v", q)
			}
		}
	}
	want := 2000.0 / 30.0 * rounds
	if math.Abs(float64(total)-want) > 0.1*want {
		t.Errorf("total queries = %d, want ≈ %v", total, want)
	}
}

func TestQueryGenZeroRate(t *testing.T) {
	s := zipf.NewSampler(zipf.MustNew(1.2, 100), testRng(6))
	g, err := NewQueryGen(s, 1000, 0, testRng(7))
	if err != nil {
		t.Fatal(err)
	}
	if buf := g.Round(nil); len(buf) != 0 {
		t.Error("zero rate produced queries")
	}
}

func TestQueryGenZipfHead(t *testing.T) {
	s := zipf.NewSampler(zipf.MustNew(1.2, 1000), testRng(8))
	g, err := NewQueryGen(s, 10000, 0.1, testRng(9))
	if err != nil {
		t.Fatal(err)
	}
	head := 0
	total := 0
	var buf []Query
	for r := 0; r < 50; r++ {
		buf = g.Round(buf)
		for _, q := range buf {
			total++
			if q.Rank <= 10 {
				head++
			}
		}
	}
	frac := float64(head) / float64(total)
	want := zipf.MustNew(1.2, 1000).HeadMass(10)
	if math.Abs(frac-want) > 0.05 {
		t.Errorf("head-10 mass = %v, want ≈ %v", frac, want)
	}
}

func TestUpdateGenValidationAndRate(t *testing.T) {
	if _, err := NewUpdateGen(0, 0.1, testRng(10)); err == nil {
		t.Error("keys=0 accepted")
	}
	if _, err := NewUpdateGen(10, math.NaN(), testRng(10)); err == nil {
		t.Error("NaN fUpd accepted")
	}
	g, err := NewUpdateGen(4000, 1.0/86400.0, testRng(11))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var buf []Update
	const rounds = 5000
	for r := 0; r < rounds; r++ {
		buf = g.Round(buf)
		for _, u := range buf {
			if u.Key < 0 || u.Key >= 4000 {
				t.Fatalf("update key %d out of range", u.Key)
			}
		}
		total += len(buf)
	}
	want := 4000.0 / 86400.0 * rounds // ≈ 231
	if math.Abs(float64(total)-want) > 0.25*want {
		t.Errorf("total updates = %d, want ≈ %v", total, want)
	}
}

func TestScheduleApply(t *testing.T) {
	s := zipf.NewSampler(zipf.MustNew(1.2, 100), testRng(12))
	sched := Schedule{
		{Round: 5, Kind: ShiftRotateHead, HeadSize: 10},
		{Round: 5, Kind: ShiftRotateHead, HeadSize: 10},
		{Round: 9, Kind: ShiftShuffle},
	}
	if fired := sched.Apply(4, s); fired != 0 {
		t.Errorf("round 4 fired %d events", fired)
	}
	before := s.KeyAtRank(1)
	if fired := sched.Apply(5, s); fired != 2 {
		t.Errorf("round 5 fired %d events, want 2", fired)
	}
	// Two single-step rotations of the head move the old rank-1 key to
	// rank 9 and rank 3's original occupant into rank 1.
	if s.KeyAtRank(1) == before {
		t.Error("rotation did not change the top key")
	}
	if fired := sched.Apply(9, s); fired != 1 {
		t.Errorf("round 9 fired %d events, want 1", fired)
	}
}
