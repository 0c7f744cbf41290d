package simcore

import (
	"fmt"
	"math"
)

// TTLEstimator self-tunes keyTtl from locally observable quantities — the
// mechanism the paper leaves as future work ("a mechanism to self-tune
// keyTtl based on the query distribution and frequency", §5.1.1), built
// here on the paper's own formula: keyTtl = 1/fMin with
// fMin = cIndKey/(cSUnstr − cSIndx) (eq. 2).
//
// Every quantity is estimated with an exponentially weighted moving average
// from events a peer sees anyway: the cost of its broadcast searches
// (cSUnstr), the hop count of its index lookups (cSIndx), and the
// network-wide maintenance load amortized per indexed key (cIndKey ≈ cRtn
// under the selection algorithm, which needs no proactive updates). The
// §5.1.1 sensitivity analysis is what makes this sound: a ±50% estimation
// error barely moves the savings, so EWMA-grade accuracy suffices.
type TTLEstimator struct {
	alpha float64 // EWMA weight of a new observation

	cSUnstr float64
	cSIndx  float64
	cRtn    float64
	nUnstr  int64
	nIndx   int64
	nRtn    int64
}

// NewTTLEstimator returns an estimator with the given EWMA weight in
// (0, 1]; 0.05–0.2 is sensible — fast enough to follow daily load swings,
// slow enough to smooth Poisson noise.
func NewTTLEstimator(alpha float64) (*TTLEstimator, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("simcore: EWMA weight %v must be in (0,1]", alpha)
	}
	return &TTLEstimator{alpha: alpha}, nil
}

func (e *TTLEstimator) observe(field *float64, n *int64, x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	*n++
	if *n == 1 {
		*field = x
		return
	}
	*field += e.alpha * (x - *field)
}

// ObserveBroadcast records the message cost of one unstructured search.
func (e *TTLEstimator) ObserveBroadcast(msgs float64) {
	e.observe(&e.cSUnstr, &e.nUnstr, msgs)
}

// ObserveLookup records the message cost of one index search (routing hops
// plus replica flood).
func (e *TTLEstimator) ObserveLookup(msgs float64) {
	e.observe(&e.cSIndx, &e.nIndx, msgs)
}

// ObserveMaintenance records one round of maintenance: probe messages sent
// network-wide and the number of keys currently indexed. Their ratio is the
// per-key holding cost cRtn of eq. 8.
func (e *TTLEstimator) ObserveMaintenance(probes float64, indexedKeys int) {
	if indexedKeys < 1 {
		indexedKeys = 1
	}
	e.observe(&e.cRtn, &e.nRtn, probes/float64(indexedKeys))
}

// Ready reports whether every component has at least one observation.
func (e *TTLEstimator) Ready() bool {
	return e.nUnstr > 0 && e.nIndx > 0 && e.nRtn > 0
}

// Estimates returns the current (cSUnstr, cSIndx, cRtn) estimates.
func (e *TTLEstimator) Estimates() (cSUnstr, cSIndx, cRtn float64) {
	return e.cSUnstr, e.cSIndx, e.cRtn
}

// FMin returns the estimated minimum worthwhile query frequency (eq. 2),
// or ok=false when the estimator is not ready or broadcast search is no
// more expensive than the index (indexing can then never amortize).
func (e *TTLEstimator) FMin() (float64, bool) {
	if !e.Ready() {
		return 0, false
	}
	denom := e.cSUnstr - e.cSIndx
	if denom <= 0 || e.cRtn <= 0 {
		return 0, false
	}
	return e.cRtn / denom, true
}

// KeyTtl returns the recommended expiration time 1/fMin in whole rounds,
// clamped to [min, max] (both in rounds; max ≤ 0 means unclamped above).
// ok=false means no recommendation yet — keep the current setting.
func (e *TTLEstimator) KeyTtl(min, max int) (int, bool) {
	fMin, ok := e.FMin()
	if !ok {
		return 0, false
	}
	ttl := int(math.Round(1 / fMin))
	if ttl < min {
		ttl = min
	}
	if max > 0 && ttl > max {
		ttl = max
	}
	return ttl, true
}
