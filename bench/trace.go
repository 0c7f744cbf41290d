package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdht/internal/obs"
)

// callSpan is the harness's span around one call in a traced window, with
// the legs the program's own trace recorded under it. Offsets are from the
// window's start; leg offsets are from the trace's begin.
type callSpan struct {
	Member   int           `json:"member"`
	Start    time.Duration `json:"start"`
	Duration time.Duration `json:"duration"`
	Traced   time.Duration `json:"traced"` // the program's own view of the call
	Keys     int           `json:"keys"`
	Hit      bool          `json:"hit"`
	Legs     []obs.Leg     `json:"legs,omitempty"`
}

// issueTraced is issue with a harness-owned trace in the context: the
// engines record their legs into a trace the caller supplies, so each span
// owns exactly its own legs and nothing has to be matched up afterwards.
func (e *env) issueTraced(ctx context.Context, start time.Time, member int, keys []uint64, t *tally) {
	hitsBefore := t.fromIndex
	t0 := time.Now()
	tr := obs.NewTrace(keys[0])
	e.issue(obs.WithTrace(ctx, tr), member, keys, t)
	qt := tr.Finish("")
	t.spans = append(t.spans, callSpan{
		Member: member, Start: t0.Sub(start), Duration: time.Since(t0), Traced: qt.Duration,
		Keys: len(keys), Hit: t.fromIndex-hitsBefore == len(keys), Legs: qt.Legs,
	})
}

// legTimes is where one traced call's time went, by the kind of leg the
// caller was blocked under.
type legTimes struct {
	probe, refresh, broadcast, insert, self time.Duration
	remoteProbes                            []time.Duration
}

// attribute splits a span into blocking time per leg kind. Only legs the
// querying side recorded count (Peer empty); server-side spans stitched in
// by wire sampling overlap them. Probes run one after another, broadcast
// and insert are each one leg. The client-only engine records no refresh
// leg, so on a hit the refresh fan-out is taken as what both engines agree
// on: the time between the end of the answering probe and the end of the
// query. Self time is the harness span minus all of these.
func (e *env) attribute(s callSpan) legTimes {
	var lt legTimes
	var lastProbeEnd time.Duration
	for _, l := range s.Legs {
		if l.Peer != "" {
			continue
		}
		switch l.Name {
		case "probe":
			lt.probe += l.Duration
			if end := l.Start + l.Duration; end > lastProbeEnd {
				lastProbeEnd = end
			}
			if e.w.remote || l.Target != e.cluster.Addr(s.Member) {
				lt.remoteProbes = append(lt.remoteProbes, l.Duration)
			}
		case "broadcast":
			lt.broadcast += l.Duration
		case "insert":
			lt.insert += l.Duration
		}
	}
	if s.Hit && lastProbeEnd > 0 {
		lt.refresh = s.Traced - lastProbeEnd
	}
	lt.self = s.Duration - lt.probe - lt.refresh - lt.broadcast - lt.insert
	return lt
}

// traceMetrics reduces the traced window to the trace.* and ledger.* rows
// it can fill alone and returns the median single remote probe leg, which
// the layer probes' isolated figure is later set against. ref is the
// untraced window of the same run.
func (e *env) traceMetrics(values map[string]float64, ref, traced window) (remoteProbeUs float64) {
	spans := traced.spans()
	us := func(d time.Duration) float64 { return usOf(float64(d)) }
	kinds := map[string][]float64{}
	var self, remoteProbe []float64
	for _, s := range spans {
		lt := e.attribute(s)
		for name, d := range map[string]time.Duration{"probe": lt.probe, "refresh": lt.refresh, "broadcast": lt.broadcast, "insert": lt.insert} {
			if d > 0 {
				kinds[name] = append(kinds[name], us(d))
			}
		}
		self = append(self, us(lt.self))
		for _, d := range lt.remoteProbes {
			remoteProbe = append(remoteProbe, us(d))
		}
	}
	// A leg kind explains its median for the share of calls that have it.
	explained := median(self)
	for _, name := range []string{"probe", "refresh", "broadcast", "insert"} {
		m := median(kinds[name])
		values["trace."+name+"_us"] = m
		if len(spans) > 0 {
			explained += m * float64(len(kinds[name])) / float64(len(spans))
		}
	}
	values["trace.self_us"] = median(self)

	refKeys, tracedKeys := float64(ref.totals().keys), float64(traced.totals().keys)
	values["trace.overhead_share"] = 1 - (tracedKeys/traced.dur.Seconds())/(refKeys/ref.dur.Seconds())
	values["ledger.explained_share"] = explained / quantile(ref.latencies(), 0.50)
	return median(remoteProbe)
}

// fleetCounters reduces an untraced window to the fleet-counter rows: what
// the members' and the client handle's registries, and the process, moved
// by per resolved key.
func (e *env) fleetCounters(values map[string]float64, w window) {
	sum := w.totals()
	k := float64(sum.keys)
	delta := w.delta
	gossipAfter, _ := w.after.Value("pdht_transport_requests_total", obs.L("op", "gossip"))
	gossipBefore, _ := w.before.Value("pdht_transport_requests_total", obs.L("op", "gossip"))
	gossip := gossipAfter - gossipBefore
	rpcs := delta("pdht_transport_requests_total") - gossip
	values["transport.rpcs_per_query"] = rpcs / k
	values["transport.bytes_per_rpc"] = delta("pdht_transport_bytes_out_total") / (rpcs + gossip)
	values["transport.rpc_failures"] = delta("pdht_transport_failures_total")
	values["node.index_hit_ratio"] = float64(sum.fromIndex) / k
	values["node.gated_insert_ratio"] = 0
	if misses := sum.keys - sum.fromIndex; misses > 0 {
		values["node.gated_insert_ratio"] = float64(sum.gated) / float64(misses)
	}
	values["node.read_repairs"] = delta("pdht_node_read_repairs_total")
	values["node.stale_views"] = delta("pdht_node_stale_views_total")
	var entries, ttl float64
	for i := 0; i < e.cluster.Size(); i++ {
		entries += float64(len(e.cluster.Node(i).LiveKeys()))
		v, _ := e.cluster.Node(i).Metrics().Snapshot().Value("pdht_node_keyttl_rounds")
		ttl += v / members
	}
	values["core.index_entries"] = entries
	values["adapt.keyttl_rounds"] = ttl
	values["adapt.retunes"] = delta("pdht_node_retunes_total")
	values["store.appends_per_query"] = delta("pdht_store_wal_appends_total") / k
	values["store.bytes_per_query"] = delta("pdht_store_wal_bytes_total") / k
	values["store.fsyncs"] = delta("pdht_store_fsyncs_total")
	values["gossip.rpcs_per_s"] = gossip / w.dur.Seconds()
	values["model.msgs_ratio"] = 0
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if fr, err := e.cluster.Node(0).ClusterReport(ctx); err == nil && fr.PredictedMsgsPerQuery > 0 {
		values["model.msgs_ratio"] = float64(sum.msgs) / k / fr.PredictedMsgsPerQuery
	}
	cancel()
	values["proc.allocs_per_query"] = float64(w.proc.allocs) / k
	values["proc.gc_pause_ms"] = float64(w.proc.gcPause) / float64(time.Millisecond)
	values["proc.heap_peak_mb"] = float64(w.proc.heapPeak) / (1 << 20)
	values["proc.goroutines_peak"] = float64(w.proc.goroutinesPeak)
	lats := w.latencies()
	values["proc.latency_p99_us"] = quantile(lats, 0.99)
	values["proc.latency_p999_us"] = quantile(lats, 0.999)
}

// dumpSpans writes the traced window's spans, one JSON object per line,
// replacing the previous dump of the same workload.
func dumpSpans(dir, workload string, spans []callSpan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spans gathers the traced window's spans from every client.
func (w window) spans() []callSpan {
	var out []callSpan
	for _, t := range w.clients {
		out = append(out, t.spans...)
	}
	return out
}

// layerWindows is the part of the per-layer pass that needs the live
// cluster: an untraced reference window (fleet counters) and a traced
// window (leg times, tracing overhead), a third of the measuring time
// each. It returns the rows it filled, the two windows' counts, and the
// median single remote probe leg for addProbes.
func layerWindows(e *env, opt options) (values map[string]float64, sum tally, probeLegUs float64, err error) {
	third := opt.measure / 3
	ref := e.drive(third, false)
	traced := e.drive(third, true)
	for _, w := range []window{ref, traced} {
		if w.invalid != "" {
			return nil, tally{}, 0, fmt.Errorf("invalid run: %s", w.invalid)
		}
	}
	if err := dumpSpans(filepath.Join(opt.scratch, "out"), e.w.name, traced.spans()); err != nil {
		return nil, tally{}, 0, fmt.Errorf("bench: span dump: %w", err)
	}
	values = make(map[string]float64, len(perLayer))
	e.fleetCounters(values, ref)
	probeLegUs = e.traceMetrics(values, ref, traced)
	sum, tsum := ref.totals(), traced.totals()
	sum.calls += tsum.calls
	sum.keys += tsum.keys
	sum.failed += tsum.failed
	return values, sum, probeLegUs, nil
}

// addProbes is the last third of the per-layer pass, run once the cluster
// is gone so the probes have the machine alone.
func addProbes(values map[string]float64, probeLegUs float64, opt options) error {
	if err := runProbes(values, opt.measure/3, opt.scratch); err != nil {
		return err
	}
	// What an idle probe costs (round trip + serve) over what it cost
	// under load; the rest of the leg is waiting. No probe legs, no share.
	values["ledger.probe_isolated_share"] = 0
	if probeLegUs > 0 {
		values["ledger.probe_isolated_share"] = (values["transport.tcp_rtt_us"] + values["node.serve_query_us"]) / probeLegUs
	}
	return nil
}
