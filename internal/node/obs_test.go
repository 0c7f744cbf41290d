package node

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/stats"
	"pdht/internal/transport"
	"pdht/internal/zipf"
)

// obsClusterConfig is the fast-clock configuration the telemetry tests run
// their clusters with: 50ms rounds, a keyTtl long enough that nothing
// expires mid-test, and gossip quick enough that convergence is cheap.
func obsClusterConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 50 * time.Millisecond
	cfg.KeyTtl = 200 // 10s of lifetime; no expiry during a test
	cfg.Repl = 3
	cfg.GossipInterval = 25 * time.Millisecond
	cfg.SuspicionTimeout = 100 * time.Millisecond
	cfg.SyncInterval = 50 * time.Millisecond
	return cfg
}

// metricValue extracts one un-labelled (or fully labelled, when series
// includes the braces) sample value from a Prometheus exposition.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsMatchReport drives real traffic through a 3-node cluster and
// asserts the two observation surfaces agree exactly: the /metrics
// exposition's node counters equal the Report fields, because both are views
// over the same atomics. Run on the debug HTTP plane end to end (httptest
// over DebugHandler) so the handler, the JSON report and the health check
// are covered in one live pass.
func TestMetricsMatchReport(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, obsClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Published keys resolve (miss → broadcast → insert, then hits on
	// repeats); unpublished keys go through the whole miss path unanswered.
	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = uint64(1000 + i)
	}
	c.PublishReplicated(keys, 3)
	n := c.Node(0)
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			mustQuery(t, n, k)
		}
	}
	for k := uint64(9000); k < 9005; k++ {
		mustQuery(t, n, k) // nobody holds these
	}

	srv := httptest.NewServer(n.DebugHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	report := n.Report()
	exposition, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}

	for _, check := range []struct {
		series string
		want   uint64
	}{
		{"pdht_node_queries_total", report.Queries},
		{"pdht_node_hits_total", report.Hits},
		{"pdht_node_misses_total", report.Misses},
		{"pdht_node_broadcasts_total", report.Broadcasts},
		{"pdht_node_broadcasts_answered_total", report.BroadcastAnswered},
		{"pdht_node_inserts_total", report.Inserts},
		{"pdht_node_unanswered_total", report.Unanswered},
		{"pdht_node_refreshes_total", report.Refreshes},
		{"pdht_node_read_repairs_total", report.ReadRepairs},
	} {
		if got := metricValue(t, exposition, check.series); got != float64(check.want) {
			t.Errorf("%s = %v, Report says %d", check.series, got, check.want)
		}
	}
	// The per-class message breakdown is a counter family — monotone, so a
	// scraper may rate() it — with one series per class, each equal to the
	// Report's entry for that class.
	if !strings.Contains(exposition, "# TYPE pdht_node_messages_total counter\n") {
		t.Error("/metrics does not expose pdht_node_messages_total as a counter")
	}
	for _, class := range stats.Classes() {
		series := fmt.Sprintf("pdht_node_messages_total{class=%q}", class)
		got := metricValue(t, exposition, series) // fatal when the series is absent
		if _, inReport := report.Messages[class]; !inReport {
			t.Errorf("Report.Messages lacks class %s", class)
		}
		// Gossip keeps sending control messages between the two reads; the
		// classes queries are filed under stand still.
		if class != stats.MsgControl && got != float64(report.Messages[class]) {
			t.Errorf("%s = %v, Report says %d", series, got, report.Messages[class])
		}
	}
	// Every unary query lands in exactly one outcome bucket of the latency
	// histogram; their counts partition Queries.
	var histTotal float64
	for _, outcome := range []string{"hit", "broadcast", "miss"} {
		histTotal += metricValue(t, exposition,
			fmt.Sprintf("pdht_node_query_seconds_count{outcome=%q}", outcome))
	}
	if histTotal != float64(report.Queries) {
		t.Errorf("query_seconds buckets sum to %v, Report.Queries = %d", histTotal, report.Queries)
	}
	// The transport layer saw every probe this node issued.
	if v := metricValue(t, exposition, `pdht_transport_requests_total{op="query"}`); v == 0 {
		t.Error("no outbound query RPCs counted on the transport")
	}
	if v := metricValue(t, exposition, "pdht_gossip_view_version"); v < 1 {
		t.Errorf("gossip view version gauge = %v", v)
	}

	body, ctype := get("/report")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/report content type %q", ctype)
	}
	var decoded Report
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/report JSON: %v", err)
	}
	if decoded.Queries != report.Queries || decoded.Hits != report.Hits {
		t.Errorf("/report says %d/%d queries/hits, Report %d/%d",
			decoded.Queries, decoded.Hits, report.Queries, report.Hits)
	}

	if body, _ := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
}

// TestReportJSONRoundTrip pins the report's wire form: a live report
// marshals, unmarshals back into an equal structure, and the per-class
// message map is keyed by the class names (MsgClass.MarshalText), not by
// bare integers.
func TestReportJSONRoundTrip(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 2, obsClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustPublish(t, c.Node(1), 42, 420)
	mustQuery(t, c.Node(0), 42) // miss → broadcast → insert
	mustQuery(t, c.Node(0), 42) // hit

	report := c.Node(0).Report()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"broadcast":`) {
		t.Errorf("Messages map not keyed by class name:\n%s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Queries != report.Queries || back.Hits != report.Hits ||
		back.Broadcasts != report.Broadcasts || back.ViewVersion != report.ViewVersion {
		t.Errorf("round trip changed counters: %+v vs %+v", back, report)
	}
	for class, count := range report.Messages {
		if back.Messages[class] != count {
			t.Errorf("round trip changed Messages[%s]: %d vs %d", class, back.Messages[class], count)
		}
	}
}

// TestQueryReportRace hammers the query path from several goroutines while
// other goroutines continuously assemble reports and render the exposition —
// the torn-read audit of satellite: every counter the two surfaces serve is
// an atomic on the registry, so -race must stay quiet and no read can tear.
func TestQueryReportRace(t *testing.T) {
	c, err := NewCluster(transport.NewMemory(), 3, obsClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := []uint64{1, 2, 3, 4, 5}
	c.PublishReplicated(keys, 3)
	n := c.Node(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mustQuery(t, n, keys[(g+i)%len(keys)])
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink strings.Builder
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := n.Report()
				if r.Hits > r.Queries {
					t.Errorf("torn read: %d hits > %d queries", r.Hits, r.Queries)
					return
				}
				sink.Reset()
				if err := n.Metrics().WritePrometheus(&sink); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestTraceCapturesFailover kills a key's primary and asserts the next
// query's trace records the failover: a failed probe at the dead primary,
// then a hit at a ranked backup — the per-leg causality record the trace
// plane exists for.
func TestTraceCapturesFailover(t *testing.T) {
	var mu sync.Mutex
	var traces []obs.QueryTrace
	cfg := obsClusterConfig()
	cfg.TraceHook = func(qt obs.QueryTrace) {
		mu.Lock()
		traces = append(traces, qt)
		mu.Unlock()
	}
	c, err := NewCluster(transport.NewMemory(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const key = 7777
	c.PublishReplicated([]uint64{key}, 5)
	// Index the key at its whole replica set (miss → broadcast → insert).
	mustQuery(t, c.Node(0), key)

	// Pick a querier whose routing designates SOMEONE ELSE as the key's
	// primary — a group member's own routing short-circuits at itself, so
	// the querier must sit outside the replica group for the probe sequence
	// to walk primary-first.
	querier, primary := -1, ""
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		rs := n.ReplicaSet(key)
		if len(rs) > 0 && rs[0] != c.Addr(i) && !slices.Contains(rs, c.Addr(i)) {
			querier, primary = i, rs[0]
			break
		}
	}
	if querier < 0 {
		t.Fatal("no node outside the replica group; enlarge the cluster")
	}
	victim := -1
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == primary {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("primary %s is not a cluster member", primary)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Query immediately, before gossip evicts the dead primary: the probe
	// sequence must walk through it and fail over to a backup's index.
	res := mustQuery(t, c.Node(querier), key)
	if !res.FromIndex {
		t.Fatalf("failover query did not hit the index: %+v", res)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, qt := range traces {
		if qt.Key != key || qt.Outcome != "hit" {
			continue
		}
		failedAtPrimary, hitAtBackup := false, false
		for _, leg := range qt.Legs {
			if leg.Name != "probe" {
				continue
			}
			if leg.Target == primary && leg.Outcome == "failed" {
				failedAtPrimary = true
			}
			if leg.Target != primary && leg.Outcome == "hit" && failedAtPrimary {
				hitAtBackup = true
			}
		}
		if failedAtPrimary && hitAtBackup {
			return // the failover is on record
		}
	}
	for _, qt := range traces {
		t.Logf("trace:\n%s", qt.Timeline())
	}
	t.Fatal("no trace shows the failed-primary → backup-hit failover")
}

// TestScrapeShowsRetuneStep is the EXPERIMENTS.md §7 recipe as a pinned
// test: scrape /metrics through an adaptive run and a churn event. The
// pdht_adapt_keyttl gauge reads NaN until the first successful refit, then
// steps to the tuned value in the same scrape that shows pdht_adapt_retunes
// go positive — the retune boundary, visible from the outside. Killing a
// member then moves the gossip gauges (view version up, alive count down)
// with no traffic at all, because they are scrape-time views of the
// membership state.
func TestScrapeShowsRetuneStep(t *testing.T) {
	const (
		nodes = 6
		keys  = 120
	)
	cfg := adaptiveClusterCfg()
	cfg.Adaptive = true
	cfg.RetuneInterval = 120 * cfg.RoundDuration
	c, err := NewCluster(transport.NewMemory(), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	corpus := make([]uint64, keys)
	for i := range corpus {
		corpus[i] = uint64(keyspace.HashString("scrape:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(corpus, 3)

	srv := httptest.NewServer(c.Node(0).DebugHandler())
	defer srv.Close()
	scrape := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Before any traffic: no fit has landed, so the fitted gauges must be
	// NaN — distinguishable from "fitted zero" — and the retune count zero.
	first := scrape()
	if v := metricValue(t, first, "pdht_adapt_retunes"); v != 0 {
		t.Fatalf("retunes = %v before any traffic", v)
	}
	if v := metricValue(t, first, "pdht_adapt_keyttl"); !math.IsNaN(v) {
		t.Fatalf("keyttl = %v before the first fit, want NaN", v)
	}

	// Drive the Zipf workload in chunks, scraping between chunks, until a
	// scrape shows the step: retunes ≥ 1 and a finite tuned keyTtl.
	dist, err := zipf.New(1.2, keys)
	if err != nil {
		t.Fatal(err)
	}
	sampler := zipf.NewSampler(dist, rand.New(rand.NewPCG(17, 19)))
	round, stepped := 0, false
	for chunk := 0; chunk < 10 && !stepped; chunk++ {
		driveRounds(t, c, sampler, corpus, nil, &round, 60)
		exp := scrape()
		retunes := metricValue(t, exp, "pdht_adapt_retunes")
		keyttl := metricValue(t, exp, "pdht_adapt_keyttl")
		t.Logf("round %d: pdht_adapt_retunes %v, pdht_adapt_keyttl %v", round, retunes, keyttl)
		if retunes >= 1 {
			if math.IsNaN(keyttl) || keyttl <= 0 {
				t.Fatalf("retune landed but keyttl gauge reads %v", keyttl)
			}
			stepped = true
		}
	}
	if !stepped {
		t.Fatalf("no retune visible on /metrics after %d rounds", round)
	}

	// The churn leg: kill a member and watch the gossip gauges move on
	// node 0's scrape alone.
	before := scrape()
	viewBefore := metricValue(t, before, "pdht_gossip_view_version")
	if v := metricValue(t, before, "pdht_gossip_members_alive"); v != nodes {
		t.Fatalf("members_alive = %v before the kill, want %d", v, nodes)
	}
	if err := c.Kill(nodes - 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		exp := scrape()
		if metricValue(t, exp, "pdht_gossip_view_version") > viewBefore &&
			metricValue(t, exp, "pdht_gossip_members_alive") == nodes-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip gauges never registered the death:\nview %v alive %v",
				metricValue(t, exp, "pdht_gossip_view_version"),
				metricValue(t, exp, "pdht_gossip_members_alive"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSlowQueryLog checks the ring fills from real traffic when the
// threshold is zero--adjacent: with a 1ns threshold every query is "slow",
// so the log must retain the most recent ones, newest first.
func TestSlowQueryLog(t *testing.T) {
	cfg := obsClusterConfig()
	cfg.SlowQueryThreshold = time.Nanosecond
	cfg.SlowQueryCapacity = 4
	c, err := NewCluster(transport.NewMemory(), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Node(0)
	c.PublishReplicated([]uint64{11, 12, 13}, 2)
	for i := 0; i < 6; i++ {
		mustQuery(t, n, uint64(11+i%3))
	}
	got := n.SlowQueries()
	if len(got) != 4 {
		t.Fatalf("slow log holds %d traces, want the ring capacity 4", len(got))
	}
	for _, qt := range got {
		if len(qt.Legs) == 0 {
			t.Errorf("slow-log trace for key %d has no legs", qt.Key)
		}
	}
}
