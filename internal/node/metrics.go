package node

import (
	"net/http"
	"time"

	"pdht/internal/obs"
	"pdht/internal/stats"
)

// nodeMetrics holds the node layer's registered instruments. Every counter
// that Report serves lives here, on the same registry the /metrics endpoint
// renders — the two surfaces are views over one set of atomics and can never
// disagree. The query engine counts into it on both hosts; a RemoteClient's
// lives on a registry nothing scrapes.
type nodeMetrics struct {
	// msgs is the per-class message breakdown (the cost terms of eq. 17),
	// indexed by stats.MsgClass, the simulator's and Report's vocabulary.
	msgs []*obs.Counter

	queries, hits, misses                     *obs.Counter
	broadcasts, broadcastAnswered             *obs.Counter
	inserts, refreshes                        *obs.Counter
	unanswered, rpcFailures                   *obs.Counter
	staleViews                                *obs.Counter
	handoffMsgs, handoffKeys                  *obs.Counter
	handoffPushFailed                         *obs.Counter
	readRepairs                               *obs.Counter
	gatedInserts, retunes                     *obs.Counter
	topkQueries, topkRounds, topkLegs         *obs.Counter
	topkEarly                                 *obs.Counter
	indexSize, topkCandidates                 *obs.Gauge
	latencyHit, latencyBroadcast, latencyMiss *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	m := &nodeMetrics{
		queries: reg.Counter("pdht_node_queries_total",
			"Queries this node resolved (or tried to) end to end."),
		hits: reg.Counter("pdht_node_hits_total",
			"Queries the index answered — the pIndxd events of eq. 14."),
		misses: reg.Counter("pdht_node_misses_total",
			"Queries the whole replica set missed on."),
		broadcasts: reg.Counter("pdht_node_broadcasts_total",
			"Unstructured broadcast searches issued after index misses."),
		broadcastAnswered: reg.Counter("pdht_node_broadcasts_answered_total",
			"Broadcast searches a content holder answered."),
		inserts: reg.Counter("pdht_node_inserts_total",
			"Broadcast-resolved keys inserted at their replica set."),
		refreshes: reg.Counter("pdht_node_refreshes_total",
			"Reset-on-hit TTL refreshes applied (served plus local)."),
		unanswered: reg.Counter("pdht_node_unanswered_total",
			"Queries nobody could answer: index missed and no content holder."),
		rpcFailures: reg.Counter("pdht_node_rpc_failures_total",
			"Outbound RPCs that failed at the transport level."),
		staleViews: reg.Counter("pdht_node_stale_views_total",
			"Routed RPCs a peer refused over a membership-hash mismatch."),
		handoffMsgs: reg.Counter("pdht_node_handoff_msgs_total",
			"Entry pushes sent on view changes (the replica repair pass)."),
		handoffKeys: reg.Counter("pdht_node_handoff_keys_total",
			"Handed-off entries the new owner accepted."),
		handoffPushFailed: reg.Counter("pdht_node_handoff_push_failed_total",
			"Handoff pushes that failed (transport error, timeout, or peer refusal) — a rising rate means repair traffic is getting stuck."),
		readRepairs: reg.Counter("pdht_node_read_repairs_total",
			"Replica-set members re-inserted on a hit after answering a refresh without the entry."),
		gatedInserts: reg.Counter("pdht_node_gated_inserts_total",
			"Broadcast-resolved keys the fMin gate refused to index."),
		retunes: reg.Counter("pdht_node_retunes_total",
			"Successful control-plane refits applied by this node."),
		indexSize: reg.Gauge("pdht_node_index_entries",
			"Live entries in the index cache (updated each round by the sweeper)."),
		topkQueries: reg.Counter("pdht_topk_queries_total",
			"Distributed top-k queries this node coordinated."),
		topkRounds: reg.Counter("pdht_topk_rounds_total",
			"Probe rounds run by coordinated top-k queries."),
		topkLegs: reg.Counter("pdht_topk_legs_total",
			"OpTopK wire legs issued by coordinated top-k queries (local self-scans are free)."),
		topkEarly: reg.Counter("pdht_topk_early_term_total",
			"Top-k queries the threshold bound terminated before every peer was drained."),
		topkCandidates: reg.Gauge("pdht_topk_candidates",
			"Candidate-set size of the most recent coordinated top-k query."),
	}
	m.latencyHit = reg.Histogram("pdht_node_query_seconds",
		"End-to-end query latency by outcome: hit (index answered), broadcast (resolved by flooding), miss (unanswered or cancelled).",
		nil, obs.L("outcome", "hit"))
	m.latencyBroadcast = reg.Histogram("pdht_node_query_seconds", "", nil, obs.L("outcome", "broadcast"))
	m.latencyMiss = reg.Histogram("pdht_node_query_seconds", "", nil, obs.L("outcome", "miss"))
	classes := stats.Classes()
	m.msgs = make([]*obs.Counter, len(classes))
	for _, c := range classes {
		m.msgs[c] = reg.Counter("pdht_node_messages_total",
			"Messages sent by class, the cost breakdown of the paper's eq. 17.",
			obs.L("class", c.String()))
	}
	return m
}

// addMsgs counts n messages of class c. Called directly only for traffic
// that belongs to no QueryResult (top-k legs, gossip and handoff control,
// the sweeper's maintenance probes); query legs go through fileMessages.
func (m *nodeMetrics) addMsgs(c stats.MsgClass, n int) {
	if n > 0 {
		m.msgs[c].Add(uint64(n))
	}
}

// messages is the per-class breakdown as Report serves it.
func (m *nodeMetrics) messages() map[stats.MsgClass]int64 {
	out := make(map[stats.MsgClass]int64, len(m.msgs))
	for c, ctr := range m.msgs {
		out[stats.MsgClass(c)] = int64(ctr.Value())
	}
	return out
}

// observeQuery files one finished unary query under its outcome bucket.
func (m *nodeMetrics) observeQuery(res QueryResult, d time.Duration) {
	switch {
	case res.FromIndex:
		m.latencyHit.Observe(d)
	case res.Answered:
		m.latencyBroadcast.Observe(d)
	default:
		m.latencyMiss.Observe(d)
	}
}

// fileMessages files finished queries' message cost under the per-class
// counters — the only place a query leg is counted besides its QueryResult,
// so Σ classes = Σ QueryResult.Total() by construction. It runs on every
// return path: a message counted at send was spent even if the query failed.
func (m *nodeMetrics) fileMessages(results ...QueryResult) {
	var lookup, flood, broadcast, update int
	for i := range results {
		r := &results[i]
		lookup += r.IndexMsgs - r.failoverMsgs
		flood += r.failoverMsgs
		broadcast += r.BroadcastMsgs
		update += r.InsertMsgs + r.RefreshMsgs + r.RepairMsgs
	}
	m.addMsgs(stats.MsgIndexLookup, lookup)
	m.addMsgs(stats.MsgReplicaFlood, flood)
	m.addMsgs(stats.MsgBroadcast, broadcast)
	m.addMsgs(stats.MsgUpdate, update)
}

// registerGauges binds the scrape-time views that need the node itself.
func (n *Node) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("pdht_node_stored_keys",
		"Keys in the local content store (what broadcasts can resolve here).",
		func() float64 { return float64(n.StoredKeys()) })
	reg.GaugeFunc("pdht_node_uptime_seconds",
		"Seconds since this node's epoch — the denominator of fleet-report QPS.",
		func() float64 { return time.Since(n.epoch).Seconds() })
	reg.GaugeFunc("pdht_node_keyttl_rounds",
		"Expiration time attached to inserts and refreshes from here on: the tuner's recommendation when adaptive, the static knob otherwise.",
		func() float64 { return float64(n.keyTtl()) })
}

// Metrics returns the node's registry — every layer's instruments
// (pdht_transport_*, pdht_node_*, pdht_gossip_*, pdht_adapt_*) registered at
// construction.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// SlowQueries returns the retained slow-query traces, newest first — empty
// unless Config.SlowQueryThreshold enabled the log.
func (n *Node) SlowQueries() []obs.QueryTrace {
	if n.slowLog == nil {
		return nil
	}
	return n.slowLog.Dump()
}

// DebugHandler returns the node's debug HTTP plane: /metrics (Prometheus
// text), /report (the self-measurement as JSON), /traces (the slow-query
// ring), /healthz and /debug/pprof. What cmd/pdht-node serves under -http.
func (n *Node) DebugHandler() http.Handler {
	return obs.Handler(n.reg,
		func() any { return n.Report() },
		func() any { return n.SlowQueries() },
	)
}
