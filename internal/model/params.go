// Package model implements the paper's analytical cost model: the
// to-index-or-not-to-index decision (Section 2, equations 1–5), the message
// cost model (Section 3, equations 6–10), the three total-cost strategies of
// the evaluation (Section 4, equations 11–13) and the TTL selection-algorithm
// model (Section 5, equations 14–17).
//
// Everything the paper plots — Figures 1 through 4 — is a pure function of a
// Params value and a query frequency; the Sweep functions in this package
// produce exactly those series.
package model

import (
	"fmt"
	"math"
)

// Params holds the scenario parameters of the model, matching Table 1 of the
// paper symbol by symbol.
type Params struct {
	// NumPeers is the total number of peers in the network (numPeers).
	NumPeers int
	// Keys is the number of unique keys occurring in the network (keys).
	Keys int
	// Stor is each peer's storage capacity for indexing, in key–value
	// pairs (stor).
	Stor int
	// Repl is the replication factor for both index entries and content
	// (repl).
	Repl int
	// Alpha is the exponent of the Zipf query distribution (α).
	Alpha float64
	// FQry is the average query frequency per peer per round, in 1/s
	// (fQry). One round is one second.
	FQry float64
	// FUpd is the average update frequency per key per round (fUpd).
	FUpd float64
	// Env is the route-maintenance environment constant of eq. 8: probe
	// messages per routing entry per round (env).
	Env float64
	// Dup is the message duplication factor of searches in the
	// unstructured network (dup).
	Dup float64
	// Dup2 is the message duplication factor of floods in the replica
	// subnetwork (dup2).
	Dup2 float64
	// WriteFanout is the number of extra write messages an index HIT costs
	// on top of the search — the live deployment's replica-coherent
	// reset-on-hit refresh: the primary's rides the probe, and the other
	// repl−1 members of the key's replica set each get a refresh in the
	// search's own round (internal/node's engine: search). Zero is the
	// paper-exact model, where the refresh is free. The fan-out charges
	// against the benefit of indexing: both fMin
	// (eq. 2's break-even frequency) and the eq. 17 total cost see it.
	WriteFanout float64
	// TopKRound is the distributed top-k query rate per peer per round,
	// and TopKProbe the expected number of OpTopK probe legs one such
	// query costs (internal/topk's round protocol). Together they charge
	// the top-k traffic into the model: the eq. 17 total cost gains the
	// cluster-wide numPeers·TopKRound·TopKProbe msgs/round, and each
	// indexed key's holding cost cIndKey carries its amortized share of
	// that serving load — the peers holding the index are the peers
	// answering the probes — so fMin rises honestly under top-k pressure
	// instead of pretending the bandwidth is free. Zero (the default) is
	// the paper-exact model.
	TopKRound float64
	TopKProbe float64
}

// DefaultScenario returns the paper's sample scenario (Table 1): a news
// system with 20,000 peers, 2,000 articles × 20 metadata keys, replication
// 50, Zipf α = 1.2 [Srip01], env = 1/14 [MaCa03], dup = dup2 = 1.8 [LvCa02],
// one update per key per day, and the busy-period query rate of one query
// per peer every 30 seconds.
func DefaultScenario() Params {
	return Params{
		NumPeers: 20000,
		Keys:     40000,
		Stor:     100,
		Repl:     50,
		Alpha:    1.2,
		FQry:     1.0 / 30.0,
		FUpd:     1.0 / (3600.0 * 24.0),
		Env:      1.0 / 14.0,
		Dup:      1.8,
		Dup2:     1.8,
	}
}

// FrequencyGrid returns the eight query frequencies on the x-axis of
// Figures 1–4: one query per peer every 30, 60, 120, 300, 600, 1800, 3600
// and 7200 seconds.
func FrequencyGrid() []float64 {
	periods := []float64{30, 60, 120, 300, 600, 1800, 3600, 7200}
	out := make([]float64, len(periods))
	for i, p := range periods {
		out[i] = 1 / p
	}
	return out
}

// FormatFrequency renders a query frequency the way the paper labels its
// axes: as "1/30", "1/7200", …
func FormatFrequency(f float64) string {
	if f <= 0 {
		return "0"
	}
	period := 1 / f
	if r := math.Round(period); math.Abs(period-r) < 1e-9 {
		return fmt.Sprintf("1/%d", int64(r))
	}
	return fmt.Sprintf("%.4g", f)
}

// Validate checks that the parameters describe a well-posed scenario.
// Every float must be finite: NaN or an infinity in any of them makes
// every cost of the model NaN or infinite.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Alpha", p.Alpha}, {"FQry", p.FQry}, {"FUpd", p.FUpd}, {"Env", p.Env},
		{"Dup", p.Dup}, {"Dup2", p.Dup2}, {"WriteFanout", p.WriteFanout},
		{"TopKRound", p.TopKRound}, {"TopKProbe", p.TopKProbe},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("model: %s = %v must be finite", f.name, f.v)
		}
	}
	switch {
	case p.NumPeers < 2:
		return fmt.Errorf("model: NumPeers = %d, need at least 2", p.NumPeers)
	case p.Keys < 1:
		return fmt.Errorf("model: Keys = %d, need at least 1", p.Keys)
	case p.Stor < 1:
		return fmt.Errorf("model: Stor = %d, need at least 1", p.Stor)
	case p.Repl < 1:
		return fmt.Errorf("model: Repl = %d, need at least 1", p.Repl)
	case p.Repl > p.NumPeers:
		return fmt.Errorf("model: Repl = %d exceeds NumPeers = %d", p.Repl, p.NumPeers)
	case p.Alpha < 0:
		return fmt.Errorf("model: Alpha = %v must be non-negative", p.Alpha)
	case p.FQry < 0:
		return fmt.Errorf("model: FQry = %v must be non-negative", p.FQry)
	case p.FUpd < 0:
		return fmt.Errorf("model: FUpd = %v must be non-negative", p.FUpd)
	case p.Env < 0:
		return fmt.Errorf("model: Env = %v must be non-negative", p.Env)
	case p.Dup < 1:
		return fmt.Errorf("model: Dup = %v must be at least 1 (every search sends at least one copy)", p.Dup)
	case p.Dup2 < 1:
		return fmt.Errorf("model: Dup2 = %v must be at least 1", p.Dup2)
	case p.WriteFanout < 0:
		return fmt.Errorf("model: WriteFanout = %v must be non-negative", p.WriteFanout)
	case p.TopKRound < 0:
		return fmt.Errorf("model: TopKRound = %v must be non-negative", p.TopKRound)
	case p.TopKProbe < 0:
		return fmt.Errorf("model: TopKProbe = %v must be non-negative", p.TopKProbe)
	}
	return nil
}

// TotalQueries returns the total queries per round sent by all peers
// together: numPeers · fQry.
func (p Params) TotalQueries() float64 {
	return float64(p.NumPeers) * p.FQry
}

// WithFQry returns a copy of p with the query frequency replaced; the sweep
// helpers use it to walk the frequency grid without mutating the base
// scenario.
func (p Params) WithFQry(f float64) Params {
	p.FQry = f
	return p
}
