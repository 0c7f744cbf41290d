package main

// metricDef names one reported metric. The two lists below must equal the
// end_to_end and per_layer lists of BENCHMARK.json; the smoke test fails
// when they drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the cluster sees, reported from untraced
// runs only.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"throughput_qps", "keys/s", higher},
	{"latency_p50_us", "us", lower},
	{"msgs_per_query", "msgs", lower},
	{"wire_bytes_per_query", "B", lower},
	{"cpu_us_per_query", "us", lower},
}

// printedOnly are end-to-end figures every untraced run prints by name but
// the result's metrics leave out, because BENCHMARK.json cannot gate them:
// the tail's run-to-run spread on a shared 2-core sandbox is wider than any
// bound the benchmark may fix, and fail_share reads 0 on every valid run
// (it is the result's failed ÷ attempted).
var printedOnly = []metricDef{
	{"latency_p99_us", "us", lower},
	{"fail_share", "ratio", lower},
}

// perLayer is the ledger: fleet counters differenced over an untraced
// window, the traced window's leg times, and the isolated layer probes.
// The prefix before the dot is the module the number belongs to.
var perLayer = []metricDef{
	// Fleet counters (registry and process deltas over the window).
	{"transport.rpcs_per_query", "rpcs", lower},
	{"transport.bytes_per_rpc", "B", lower},
	{"transport.rpc_failures", "count", lower},
	{"node.index_hit_ratio", "ratio", higher},
	{"node.gated_insert_ratio", "ratio", lower},
	{"node.read_repairs", "count", lower},
	{"node.stale_views", "count", lower},
	{"core.index_entries", "count", higher},
	{"adapt.keyttl_rounds", "rounds", lower},
	{"adapt.retunes", "count", higher},
	{"store.appends_per_query", "count", lower},
	{"store.bytes_per_query", "B", lower},
	{"store.fsyncs", "count", lower},
	{"gossip.rpcs_per_s", "1/s", lower},
	{"model.msgs_ratio", "ratio", lower},
	{"proc.allocs_per_query", "count", lower},
	{"proc.gc_pause_ms", "ms", lower},
	{"proc.heap_peak_mb", "MB", lower},
	{"proc.goroutines_peak", "count", lower},
	{"proc.latency_p99_us", "us", lower},
	{"proc.latency_p999_us", "us", lower},
	// Traced window.
	{"trace.probe_us", "us", lower},
	{"trace.refresh_us", "us", lower},
	{"trace.broadcast_us", "us", lower},
	{"trace.insert_us", "us", lower},
	{"trace.self_us", "us", lower},
	{"trace.overhead_share", "ratio", lower},
	{"ledger.explained_share", "ratio", higher},
	{"ledger.probe_isolated_share", "ratio", higher},
	// Layer probes (one goroutine, isolated, the workloads' shapes).
	{"transport.tcp_rtt_us", "us", lower},
	{"transport.tcp_rtt_allocs", "count", lower},
	{"transport.tcp_rtt_bytes", "B", lower},
	{"transport.tcp_batch32_rtt_us", "us", lower},
	{"transport.tcp_batch32_bytes", "B", lower},
	{"transport.mem_rtt_us", "us", lower},
	{"transport.tcp_dial_us", "us", lower},
	{"node.serve_query_us", "us", lower},
	{"node.serve_refresh_us", "us", lower},
	{"node.serve_insert_us", "us", lower},
	{"node.serve_batch32_us", "us", lower},
	{"node.member_hit_us", "us", lower},
	{"node.member_hit_allocs", "count", lower},
	{"node.remote_hit_us", "us", lower},
	{"node.remote_hit_allocs", "count", lower},
	{"node.member_miss_us", "us", lower},
	{"node.member_batch32_us", "us", lower},
	{"node.remote_batch32_us", "us", lower},
	{"node.topk_us", "us", lower},
	{"client.facade_ns", "ns", lower},
	{"core.cache_get_ns", "ns", lower},
	{"core.cache_refresh_ns", "ns", lower},
	{"core.cache_put_evict_ns", "ns", lower},
	{"keyspace.group_ns", "ns", lower},
	{"keyspace.route_hops_ns", "ns", lower},
	{"keyspace.new_ring_us", "us", lower},
	{"keyspace.apply_us", "us", lower},
	{"replica.fanout3_us", "us", lower},
	{"adapt.observe_ns", "ns", lower},
	{"adapt.should_index_ns", "ns", lower},
	{"adapt.retune_us", "us", lower},
	{"store.append_us", "us", lower},
	{"store.recover_ms", "ms", lower},
	{"gossip.handle_ping_us", "us", lower},
	{"gossip.converge5_ms", "ms", lower},
	{"topk.serve_us", "us", lower},
	{"obs.histogram_observe_ns", "ns", lower},
	{"obs.snapshot_us", "us", lower},
}
