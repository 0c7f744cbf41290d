package simcore

import (
	"math"
	"testing"
)

func TestNewTTLEstimatorValidation(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewTTLEstimator(a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
	if _, err := NewTTLEstimator(1); err != nil {
		t.Errorf("alpha 1 rejected: %v", err)
	}
}

func TestEstimatorReadiness(t *testing.T) {
	e, _ := NewTTLEstimator(0.1)
	if e.Ready() {
		t.Error("ready with no observations")
	}
	if _, ok := e.FMin(); ok {
		t.Error("FMin available when not ready")
	}
	e.ObserveBroadcast(700)
	e.ObserveLookup(90)
	if e.Ready() {
		t.Error("ready without maintenance observations")
	}
	e.ObserveMaintenance(500, 1000)
	if !e.Ready() {
		t.Error("not ready with all three observed")
	}
}

func TestEstimatorConvergesToPaperValues(t *testing.T) {
	// Feed the estimator noiseless paper-scenario observations:
	// cSUnstr = 720, cSIndx2 ≈ 97, cRtn ≈ 0.51. It must recover
	// fMin = cRtn/(cSUnstr − cSIndx) and keyTtl = 1/fMin.
	e, _ := NewTTLEstimator(0.2)
	for i := 0; i < 200; i++ {
		e.ObserveBroadcast(720)
		e.ObserveLookup(97)
		e.ObserveMaintenance(20400, 40000) // 0.51 per key
	}
	cU, cI, cR := e.Estimates()
	if math.Abs(cU-720) > 1e-9 || math.Abs(cI-97) > 1e-9 || math.Abs(cR-0.51) > 1e-9 {
		t.Fatalf("estimates = %v %v %v", cU, cI, cR)
	}
	fMin, ok := e.FMin()
	if !ok {
		t.Fatal("FMin not available")
	}
	want := 0.51 / (720 - 97)
	if math.Abs(fMin-want) > 1e-12 {
		t.Errorf("fMin = %v, want %v", fMin, want)
	}
	ttl, ok := e.KeyTtl(1, 0)
	if !ok || ttl != int(math.Round(1/want)) {
		t.Errorf("KeyTtl = %d,%v want %d", ttl, ok, int(math.Round(1/want)))
	}
}

func TestEstimatorTracksShiftingLoad(t *testing.T) {
	// When broadcast searches get cheaper (smaller network, say), fMin
	// rises and the recommended TTL falls.
	e, _ := NewTTLEstimator(0.2)
	for i := 0; i < 100; i++ {
		e.ObserveBroadcast(720)
		e.ObserveLookup(50)
		e.ObserveMaintenance(1000, 2000)
	}
	ttlBefore, _ := e.KeyTtl(1, 0)
	for i := 0; i < 300; i++ {
		e.ObserveBroadcast(200)
	}
	ttlAfter, ok := e.KeyTtl(1, 0)
	if !ok {
		t.Fatal("estimator lost readiness")
	}
	if ttlAfter >= ttlBefore {
		t.Errorf("TTL should fall when broadcasting gets cheap: %d → %d", ttlBefore, ttlAfter)
	}
}

func TestEstimatorClamps(t *testing.T) {
	e, _ := NewTTLEstimator(0.5)
	e.ObserveBroadcast(720)
	e.ObserveLookup(7)
	e.ObserveMaintenance(1, 100000) // minuscule per-key cost → huge TTL
	ttl, ok := e.KeyTtl(10, 500)
	if !ok || ttl != 500 {
		t.Errorf("KeyTtl = %d,%v want clamped to 500", ttl, ok)
	}
	e2, _ := NewTTLEstimator(0.5)
	e2.ObserveBroadcast(100)
	e2.ObserveLookup(7)
	e2.ObserveMaintenance(1e6, 10) // ruinous per-key cost → TTL below min
	ttl2, ok2 := e2.KeyTtl(10, 500)
	if !ok2 || ttl2 != 10 {
		t.Errorf("KeyTtl = %d,%v want clamped to 10", ttl2, ok2)
	}
}

func TestEstimatorBroadcastNotWorthIt(t *testing.T) {
	// Index search as expensive as broadcast: indexing can never
	// amortize; no recommendation.
	e, _ := NewTTLEstimator(0.3)
	e.ObserveBroadcast(50)
	e.ObserveLookup(80)
	e.ObserveMaintenance(100, 10)
	if _, ok := e.FMin(); ok {
		t.Error("FMin offered although lookup costs more than broadcast")
	}
	if _, ok := e.KeyTtl(1, 0); ok {
		t.Error("KeyTtl offered although lookup costs more than broadcast")
	}
}

func TestEstimatorIgnoresGarbage(t *testing.T) {
	e, _ := NewTTLEstimator(0.3)
	e.ObserveBroadcast(math.NaN())
	e.ObserveBroadcast(math.Inf(1))
	e.ObserveBroadcast(-5)
	if e.nUnstr != 0 {
		t.Error("garbage observations were recorded")
	}
	e.ObserveMaintenance(100, 0) // zero keys clamps to 1, not a crash
	if e.cRtn != 100 {
		t.Errorf("cRtn = %v, want 100 with indexedKeys clamped to 1", e.cRtn)
	}
}
