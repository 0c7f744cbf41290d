package adapt

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"pdht/internal/model"
	"pdht/internal/zipf"
)

// testInputs is the sim-style scenario the tuner tests fit against: one
// tuner observes the whole population's query stream.
func testInputs(window int) Inputs {
	return Inputs{Members: 100, Observers: 100, Capacity: 100, Repl: 5, Env: 1.0 / 14, WindowRounds: window}
}

// driveZipf feeds n Zipf-distributed key observations through the tuner.
func driveZipf(t *Tuner, sampler *zipf.Sampler, n int) {
	for i := 0; i < n; i++ {
		t.Observe(uint64(sampler.Sample()))
	}
}

func TestTunerConvergesToModelRecommendation(t *testing.T) {
	const (
		members = 100
		keys    = 500
		fQry    = 0.05
		window  = 400
	)
	dist := zipf.MustNew(1.2, keys)
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(1, 2)))
	tn, err := NewTuner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.KeyTtl(); ok {
		t.Fatal("KeyTtl ready before any retune")
	}

	in := testInputs(window)
	perWindow := int(members * fQry * window)
	var d Decision
	for w := 0; w < 4; w++ {
		driveZipf(tn, sampler, perWindow)
		d, err = tn.Retune(in)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}

	// Ground truth: SolveTTLAuto at the *true* scenario parameters. The
	// tuner only sees the stream — its distinct-key estimate misses never-
	// queried tail keys — yet its recommendation must land close.
	p := model.Params{NumPeers: members, Keys: keys, Stor: 100, Repl: 5,
		Alpha: 1.2, FQry: fQry, Env: 1.0 / 14, Dup: 1.8, Dup2: 1.8}
	sol, _, err := model.SolveTTLAuto(p, dist)
	if err != nil {
		t.Fatal(err)
	}
	wantTtl := model.IdealKeyTtl(sol)
	if rel := math.Abs(float64(d.KeyTtl)-wantTtl) / wantTtl; rel > 0.25 {
		t.Fatalf("tuned keyTtl %d is %.0f%% off the model recommendation %.0f", d.KeyTtl, 100*rel, wantTtl)
	}
	if math.Abs(d.Alpha-1.2) > 0.15 {
		t.Fatalf("fitted alpha %.3f far from true 1.2", d.Alpha)
	}
	if math.Abs(d.FQry-fQry)/fQry > 0.05 {
		t.Fatalf("fitted fQry %.4f far from true %.4f", d.FQry, fQry)
	}
	if ttl, ok := tn.KeyTtl(); !ok || ttl != d.KeyTtl {
		t.Fatalf("KeyTtl() = (%d,%v), want (%d,true)", ttl, ok, d.KeyTtl)
	}
	snap := tn.Snapshot()
	if !snap.Ready || snap.Retunes != 4 {
		t.Fatalf("snapshot = %+v, want ready with 4 retunes", snap)
	}
	if snap.MemoryBytes == 0 || snap.MemoryBytes > 1<<21 {
		t.Fatalf("summary memory %d bytes outside the bounded range", snap.MemoryBytes)
	}
}

func TestTunerGatesBelowFMin(t *testing.T) {
	// A high-maintenance scenario (env = 1) at small scale: fMin is large
	// enough that tail keys must be gated while head keys pass.
	const (
		members = 20
		keys    = 200
		window  = 100
	)
	dist := zipf.MustNew(1.2, keys)
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(5, 6)))
	tn, err := NewTuner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Before any retune every key passes — static behavior until the
	// control loop has a model.
	if !tn.ShouldIndex(12345) {
		t.Fatal("ShouldIndex gated before the first retune")
	}

	in := Inputs{Members: members, Observers: members, Capacity: 64, Repl: 4, Env: 1, WindowRounds: window}
	var d Decision
	for w := 0; w < 3; w++ {
		driveZipf(tn, sampler, 20*window)
		d, err = tn.Retune(in)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	if d.FMin <= 0 || math.IsInf(d.FMin, 1) {
		t.Fatalf("fitted fMin = %v, want positive and finite", d.FMin)
	}
	if d.GateThreshold < 2 {
		t.Fatalf("gate threshold %d cannot gate anything; scenario mis-sized", d.GateThreshold)
	}
	if !tn.ShouldIndex(0) { // rank-1 key under the identity mapping
		t.Fatal("head key gated")
	}
	if tn.ShouldIndex(999999) { // never-queried key
		t.Fatal("unseen key passed the fMin gate")
	}
	snap := tn.Snapshot()
	if snap.Allowed == 0 || snap.Gated == 0 {
		t.Fatalf("gate counters = %+v, want both nonzero", snap)
	}
}

func TestTunerNoTrafficAndRecovery(t *testing.T) {
	tn, err := NewTuner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(100)
	if _, err := tn.Retune(in); err == nil {
		t.Fatal("retune over an idle window succeeded, want an error")
	}
	// Traffic resumes: the next retune fits again.
	dist := zipf.MustNew(1.2, 100)
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(9, 9)))
	driveZipf(tn, sampler, 2000)
	if _, err := tn.Retune(in); err != nil {
		t.Fatalf("retune after traffic resumed: %v", err)
	}
}

func TestTunerEnvZeroRecommendsMaxTTLNoGating(t *testing.T) {
	tn, err := NewTuner(Config{TTLMax: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dist := zipf.MustNew(1.2, 100)
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(2, 3)))
	driveZipf(tn, sampler, 2000)
	in := testInputs(100)
	in.Env = 0 // maintenance-free: holding an index entry costs nothing
	d, err := tn.Retune(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.KeyTtl != 5000 {
		t.Fatalf("keyTtl = %d, want TTLMax 5000 when indexing is free", d.KeyTtl)
	}
	if d.GateThreshold > 1 {
		t.Fatalf("gate threshold = %d, want no gating when fMin is zero", d.GateThreshold)
	}
	if !tn.ShouldIndex(999999) {
		t.Fatal("key gated under a zero fMin")
	}
}

func TestTunerInputValidation(t *testing.T) {
	tn, err := NewTuner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tn.Observe(1)
	bad := []Inputs{
		{Members: 1, Observers: 1, Capacity: 10, Repl: 1, WindowRounds: 10},
		{Members: 5, Observers: 0, Capacity: 10, Repl: 1, WindowRounds: 10},
		{Members: 5, Observers: 1, Capacity: 0, Repl: 1, WindowRounds: 10},
		{Members: 5, Observers: 1, Capacity: 10, Repl: 0, WindowRounds: 10},
		{Members: 5, Observers: 1, Capacity: 10, Repl: 1, WindowRounds: 0},
		{Members: 5, Observers: 1, Capacity: 10, Repl: 1, Env: -1, WindowRounds: 10},
	}
	for i, in := range bad {
		if _, err := tn.Retune(in); err == nil {
			t.Fatalf("inputs %d (%+v) accepted, want error", i, in)
		}
	}
	if _, err := NewTuner(Config{TTLMax: -1}); err == nil {
		t.Fatal("non-positive TTLMax accepted")
	}
}

// TestTunerConcurrency exercises Observe/ShouldIndex/Retune under the race
// detector — the exact interleaving a live node produces.
func TestTunerConcurrency(t *testing.T) {
	tn, err := NewTuner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := testInputs(50)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^7))
			for i := 0; i < 5000; i++ {
				k := uint64(rng.IntN(300))
				tn.Observe(k)
				if i%7 == 0 {
					tn.ShouldIndex(k)
				}
			}
		}(uint64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tn.Retune(in)
		}
	}()
	wg.Wait()
	if got := tn.Snapshot().Observed; got != 20000 {
		t.Fatalf("observed %d queries, want 20000", got)
	}
}
