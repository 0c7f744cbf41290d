package obs

import (
	"math"
	"sort"
	"time"
)

// Metric names the fleet report reads out of per-peer snapshots. Keeping
// them in one place bounds the blast radius of a rename — the node package
// registers them, BuildFleetReport consumes them, and the golden-file test
// pins the resulting JSON.
const (
	fleetQueries      = "pdht_node_queries_total"
	fleetHits         = "pdht_node_hits_total"
	fleetMessages     = "pdht_node_messages_total"
	fleetQuerySeconds = "pdht_node_query_seconds"
	fleetUptime       = "pdht_node_uptime_seconds"
	fleetKeyTtl       = "pdht_node_keyttl_rounds"
	fleetFMin         = "pdht_adapt_fmin"
	fleetWALBytes     = "pdht_store_wal_size_bytes"
	fleetAlive        = "pdht_gossip_members_alive"
	fleetTopKQueries  = "pdht_topk_queries_total"
	fleetTopKLegs     = "pdht_topk_legs_total"
)

// FleetPeer is one peer's row of a FleetReport — what one line of pdht-top
// renders.
type FleetPeer struct {
	Addr    string  `json:"addr"`
	Queries uint64  `json:"queries"`
	Hits    uint64  `json:"hits"`
	HitRate float64 `json:"hit_rate"`
	// QPS is the peer's lifetime query rate: queries over uptime.
	QPS float64 `json:"qps"`
	// P99 is the peer's query latency tail, pooled across outcomes.
	P99 time.Duration `json:"p99"`
	// KeyTtl is the expiration time the peer currently attaches to
	// inserts/refreshes — the adaptive tuner's actuated value, or the
	// static configuration.
	KeyTtl float64 `json:"key_ttl"`
	// FMin is the tuner's fitted query-rate threshold; zero when the peer
	// runs non-adaptive or has not fitted yet.
	FMin float64 `json:"f_min,omitempty"`
	// WALBytes is the peer's write-ahead log size; zero for memory-only
	// peers.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// MembersAlive is the peer's own count of live members — divergence
	// across rows means the gossip views have not converged.
	MembersAlive int64 `json:"members_alive"`
	// MsgsPerQuery is the peer's measured message cost per query, the
	// paper's per-node cost figure.
	MsgsPerQuery float64 `json:"msgs_per_query"`
	// TopKLegsPerQuery is the peer's measured OpTopK probe legs per
	// coordinated top-k query; zero when the peer coordinated none.
	TopKLegsPerQuery float64 `json:"topk_legs_per_query,omitempty"`
}

// FleetReport is the cluster-wide view Client.ClusterReport assembles: one
// row per reachable peer plus aggregates computed from the merged
// snapshots — cluster hit rate, pooled latency quantiles, the measured
// msgs/query the paper's cost model predicts, and the spread of the
// per-peer tuners (how far the fleet's independent fits diverge).
type FleetReport struct {
	Peers []FleetPeer `json:"peers"`
	// Queries/Hits/HitRate aggregate the whole fleet.
	Queries uint64  `json:"queries"`
	Hits    uint64  `json:"hits"`
	HitRate float64 `json:"hit_rate"`
	// MsgsPerQuery is the measured cluster-wide message cost per query —
	// the paper's headline number (eq. 2/17 predicts it).
	MsgsPerQuery float64 `json:"msgs_per_query"`
	// PredictedMsgsPerQuery is SolveTTL's prediction for the same number,
	// filled in by the node layer when a model fit is available.
	PredictedMsgsPerQuery float64 `json:"predicted_msgs_per_query,omitempty"`
	// P50/P90/P99 are query latency quantiles over the *pooled* bucket
	// counts of every peer — not an average of per-peer quantiles.
	P50 time.Duration `json:"p50"`
	P90 time.Duration `json:"p90"`
	P99 time.Duration `json:"p99"`
	// KeyTtlMin/Max and FMinMin/Max bound the per-peer tuner state: a
	// wide spread means peers see different query streams (or have not
	// converged).
	KeyTtlMin float64 `json:"key_ttl_min"`
	KeyTtlMax float64 `json:"key_ttl_max"`
	FMinMin   float64 `json:"f_min_min,omitempty"`
	FMinMax   float64 `json:"f_min_max,omitempty"`
	// Merged is the full fleet-wide snapshot the aggregates were computed
	// from, for callers that want more than the report surfaces. Not part
	// of the JSON encoding.
	Merged Snapshot `json:"-"`
}

// BuildFleetReport assembles the fleet view from per-peer snapshots. The
// result is independent of the order snapshots are passed in: rows sort by
// address and aggregates come from the commutative Merge.
func BuildFleetReport(snaps []Snapshot) FleetReport {
	var fr FleetReport
	fr.KeyTtlMin, fr.FMinMin = math.Inf(1), math.Inf(1)
	for _, s := range snaps {
		fr.Peers = append(fr.Peers, peerRow(s))
	}
	sort.Slice(fr.Peers, func(i, j int) bool { return fr.Peers[i].Addr < fr.Peers[j].Addr })

	fr.Merged = Merge(snaps...)
	queries, hits := count(fr.Merged, fleetQueries), count(fr.Merged, fleetHits)
	fr.Queries, fr.Hits = uint64(queries), uint64(hits)
	fr.HitRate = ratio(hits, queries)
	fr.MsgsPerQuery = ratio(count(fr.Merged, fleetMessages), queries)
	if pooled, ok := fr.Merged.MergeHistograms(fleetQuerySeconds); ok {
		if d, ok := pooled.Quantile(0.50); ok {
			fr.P50 = d
		}
		if d, ok := pooled.Quantile(0.90); ok {
			fr.P90 = d
		}
		if d, ok := pooled.Quantile(0.99); ok {
			fr.P99 = d
		}
	}
	for _, p := range fr.Peers {
		fr.KeyTtlMin = math.Min(fr.KeyTtlMin, p.KeyTtl)
		fr.KeyTtlMax = math.Max(fr.KeyTtlMax, p.KeyTtl)
		if p.FMin > 0 {
			fr.FMinMin = math.Min(fr.FMinMin, p.FMin)
			fr.FMinMax = math.Max(fr.FMinMax, p.FMin)
		}
	}
	if math.IsInf(fr.KeyTtlMin, 1) {
		fr.KeyTtlMin = 0
	}
	if math.IsInf(fr.FMinMin, 1) {
		fr.FMinMin = 0
	}
	return fr
}

// peerRow distills one peer's snapshot into its report row. The peer wrote
// every number in it, so absent series read as zero — a client-mode
// snapshot simply has no node counters — and so does whatever would poison
// the row's JSON: counters that are not counts, non-finite tuner gauges
// (fMin before the first fit), ratios that overflow.
func peerRow(s Snapshot) FleetPeer {
	row := FleetPeer{Addr: s.Addr}
	queries, hits := count(s, fleetQueries), count(s, fleetHits)
	row.Queries, row.Hits = uint64(queries), uint64(hits)
	row.HitRate = ratio(hits, queries)
	row.MsgsPerQuery = ratio(count(s, fleetMessages), queries)
	up, _ := s.Value(fleetUptime)
	row.QPS = ratio(queries, up)
	if pooled, ok := s.MergeHistograms(fleetQuerySeconds); ok {
		if d, ok := pooled.Quantile(0.99); ok {
			row.P99 = d
		}
	}
	if v, ok := s.Value(fleetKeyTtl); ok && finite(v) {
		row.KeyTtl = v
	}
	if v, ok := s.Value(fleetFMin); ok && finite(v) {
		row.FMin = v
	}
	if v, ok := s.Value(fleetWALBytes); ok {
		row.WALBytes = int64(v)
	}
	if v, ok := s.Value(fleetAlive); ok {
		row.MembersAlive = int64(v)
	}
	row.TopKLegsPerQuery = ratio(count(s, fleetTopKLegs), count(s, fleetTopKQueries))
	return row
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// count reads the named counter family's total out of a snapshot a peer
// wrote: what no count can be — NaN, ±Inf, negative, beyond uint64 — reads
// as absent.
func count(s Snapshot, name string) float64 {
	if v := s.SumAcross(name); v >= 0 && v < 1<<64 {
		return v
	}
	return 0
}

// ratio returns num/den, or zero when den is not positive or the quotient
// is not finite.
func ratio(num, den float64) float64 {
	if r := num / den; den > 0 && finite(r) {
		return r
	}
	return 0
}
