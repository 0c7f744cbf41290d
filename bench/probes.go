package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"strconv"
	"time"

	"pdht/client"
	"pdht/internal/adapt"
	"pdht/internal/core"
	"pdht/internal/gossip"
	"pdht/internal/keyspace"
	"pdht/internal/node"
	"pdht/internal/obs"
	"pdht/internal/replica"
	"pdht/internal/store"
	"pdht/internal/topk"
	"pdht/internal/transport"
	"pdht/internal/zipf"
)

// The layer probes: one goroutine calls each layer's public functions with
// the workloads' shapes (same key hashing, 5 members, Repl=3) and records
// a span per round of calls. Every probe reports the median over rounds.

// heapAllocs reads the process's cumulative allocation count without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeOp calls f in rounds of inner calls until budget is spent (at least
// three rounds) and returns the median per-call time and allocations.
// prep, when set, runs untimed before each round.
func timeOp(budget time.Duration, inner int, prep, f func()) (ns, allocs float64) {
	var times, al []float64
	deadline := time.Now().Add(budget)
	for len(times) < 3 || time.Now().Before(deadline) {
		if prep != nil {
			prep()
		}
		a0 := heapAllocs()
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		d := time.Since(t0)
		times = append(times, float64(d)/float64(inner))
		al = append(al, float64(heapAllocs()-a0)/float64(inner))
	}
	return median(times), median(al)
}

// timeExtra returns how much longer one call of served takes than one call
// of echo, as the median over alternating rounds — a serve path's self
// time with the round trip it shares with the echo subtracted pairwise, so
// drift in the machine's speed cancels.
func timeExtra(budget time.Duration, inner int, echo, served func()) (ns float64) {
	var diffs []float64
	deadline := time.Now().Add(budget)
	for len(diffs) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			echo()
		}
		t1 := time.Now()
		for i := 0; i < inner; i++ {
			served()
		}
		t2 := time.Now()
		diffs = append(diffs, float64(t2.Sub(t1)-t1.Sub(t0))/float64(inner))
	}
	return median(diffs)
}

func usOf(ns float64) float64 { return ns / 1e3 }
func msOf(ns float64) float64 { return ns / 1e6 }

// probeKeys are keys hashed the way the workloads hash theirs.
func probeKeys(n int) []uint64 { return keyPool(0, n) }

// echo answers every request at once with a reply of the real one's shape.
func echo(req transport.Request) transport.Response {
	if req.Op == transport.OpBatch {
		out := make([]transport.BatchResult, len(req.Batch))
		for i, it := range req.Batch {
			out[i] = transport.BatchResult{OK: true, Found: true, Value: it.Key}
		}
		return transport.Response{OK: true, Batch: out}
	}
	return transport.Response{OK: true, Found: true, Value: req.Key}
}

// batchOf builds a 32-item query batch as QueryMany sends it.
func batchOf(keys []uint64, ttl int) []transport.BatchItem {
	items := make([]transport.BatchItem, len(keys))
	for i, k := range keys {
		items[i] = transport.BatchItem{Op: transport.OpQuery, Key: k, TTL: ttl}
	}
	return items
}

// probeCluster boots an n-member in-memory-store cluster on tr with the
// workloads' round and gossip clocks and a TTL nothing outlives.
func probeCluster(tr transport.Transport, n int) (*node.Cluster, error) {
	cfg := node.DefaultConfig()
	cfg.Repl = repl
	cfg.RoundDuration = roundDuration
	cfg.GossipInterval = gossipEvery
	cfg.KeyTtl = 1 << 20
	cfg.Capacity = 1 << 17
	c, err := node.NewCluster(tr, n, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// runProbes fills values with every layer-probe row, spending about budget
// in total.
func runProbes(values map[string]float64, budget time.Duration, scratch string) error {
	per := budget / 40
	for _, probe := range []func(map[string]float64, time.Duration, string) error{
		probeTransport, probeMembers, probeEngines, probeFacade,
		probeLocal, probeStore, probeGossip,
	} {
		if err := probe(values, per, scratch); err != nil {
			return fmt.Errorf("bench: layer probe: %w", err)
		}
	}
	return nil
}

// failure keeps the first error a probe's calls hit; the probe returns it.
type failure struct{ err error }

func (f *failure) check(resp transport.Response, err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
	if f.err == nil && resp.Err != "" {
		f.err = fmt.Errorf("peer refused: %s", resp.Err)
	}
}

// probeTransport prices the wire alone: an echo handler behind
// NewTCP().Serve/Dial/Call, with a unary and a 32-item batch request.
func probeTransport(values map[string]float64, per time.Duration, _ string) error {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tcp := transport.Instrument(transport.NewTCP(), transport.NewMetrics(reg))
	srv, err := tcp.Serve("", echo)
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := tcp.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	keys := probeKeys(batchSize)
	unary := transport.Request{Op: transport.OpQuery, Key: keys[0], ViewHash: keys[1]}
	batch := transport.Request{Op: transport.OpBatch, ViewHash: keys[1], Batch: batchOf(keys, 1<<20)}
	var f failure
	bytesOut := func() float64 { v, _ := reg.Snapshot().Value("pdht_transport_bytes_out_total"); return v }
	reqs := func() float64 { return reg.Snapshot().SumAcross("pdht_transport_requests_total") }

	b0, r0 := bytesOut(), reqs()
	d, allocs := timeOp(per, 50, nil, func() { f.check(cl.Call(ctx, unary)) })
	values["transport.tcp_rtt_us"] = usOf(d)
	values["transport.tcp_rtt_allocs"] = allocs
	values["transport.tcp_rtt_bytes"] = (bytesOut() - b0) / (reqs() - r0)

	b0, r0 = bytesOut(), reqs()
	d, _ = timeOp(per, 20, nil, func() { f.check(cl.Call(ctx, batch)) })
	values["transport.tcp_batch32_rtt_us"] = usOf(d)
	values["transport.tcp_batch32_bytes"] = (bytesOut() - b0) / (reqs() - r0)

	d, _ = timeOp(per, 5, nil, func() {
		c, err := tcp.Dial(srv.Addr())
		if err != nil {
			f.check(transport.Response{}, err)
			return
		}
		c.Close()
	})
	values["transport.tcp_dial_us"] = usOf(d)

	mem := transport.NewMemory()
	msrv, err := mem.Serve("", echo)
	if err != nil {
		return err
	}
	defer msrv.Close()
	mcl, err := mem.Dial(msrv.Addr())
	if err != nil {
		return err
	}
	defer mcl.Close()
	d, _ = timeOp(per, 200, nil, func() { f.check(mcl.Call(ctx, unary)) })
	values["transport.mem_rtt_us"] = usOf(d)
	return f.err
}

// probeMembers prices a live member from outside, on a 5-member cluster
// over the Memory transport so the wire's noise stays out: each serve path
// as a Call carrying the member's ViewHash minus the same Call to an echo
// endpoint (the handler's self time), and one distributed top-k query
// (3 terms, k=5, every member holding a document per term).
func probeMembers(values map[string]float64, per time.Duration, _ string) error {
	ctx := context.Background()
	mem := transport.NewMemory()
	c, err := probeCluster(mem, members)
	if err != nil {
		return err
	}
	defer c.Close()
	srv, err := mem.Serve("", echo)
	if err != nil {
		return err
	}
	defer srv.Close()
	toEcho, err := mem.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer toEcho.Close()
	toNode, err := mem.Dial(c.Addr(0))
	if err != nil {
		return err
	}
	defer toNode.Close()

	keys := probeKeys(batchSize)
	hash := c.Node(0).ViewHash()
	const ttl = 1 << 20
	var f failure
	for _, k := range keys {
		f.check(toNode.Call(ctx, transport.Request{Op: transport.OpInsert, Key: k, Value: k, TTL: ttl, ViewHash: hash}))
	}
	for name, req := range map[string]transport.Request{
		"node.serve_query_us":   {Op: transport.OpQuery, Key: keys[0], ViewHash: hash},
		"node.serve_refresh_us": {Op: transport.OpRefresh, Key: keys[0], TTL: ttl, ViewHash: hash},
		"node.serve_insert_us":  {Op: transport.OpInsert, Key: keys[0], Value: keys[0], TTL: ttl, ViewHash: hash},
		"node.serve_batch32_us": {Op: transport.OpBatch, Batch: batchOf(keys, ttl), ViewHash: hash},
	} {
		values[name] = usOf(timeExtra(per, 200,
			func() { f.check(toEcho.Call(ctx, req)) },
			func() { f.check(toNode.Call(ctx, req)) }))
	}
	if f.err != nil {
		return f.err
	}

	terms := probeKeys(3)
	for i := 0; i < members; i++ {
		for j, t := range terms {
			if err := c.Node(i).Publish(ctx, t, uint64(100*i+j)); err != nil {
				return err
			}
		}
	}
	var bad error
	d, _ := timeOp(per, 10, nil, func() {
		res, err := c.Node(0).QueryTopK(ctx, terms, 5)
		if bad == nil && (err != nil || len(res.Entries) != 5) {
			bad = fmt.Errorf("top-k returned %d entries (%v)", len(res.Entries), err)
		}
	})
	values["node.topk_us"] = usOf(d)

	content := map[uint64]uint64{terms[0]: 1, terms[1]: 2, terms[2]: 3}
	lookup := func(term uint64) (uint64, bool) { doc, ok := content[term]; return doc, ok }
	d, _ = timeOp(per, 200, nil, func() { topk.Serve(topk.Req{Terms: terms, K: 5}, lookup, nil) })
	values["topk.serve_us"] = usOf(d)
	return bad
}

// probeEngines prices the two query engines with the wire taken out: a
// 3-member cluster on the Memory transport, the old BenchmarkNodeQuery
// fixture, queried from a member and from a client-only handle.
func probeEngines(values map[string]float64, per time.Duration, _ string) error {
	ctx := context.Background()
	mem := transport.NewMemory()
	c, err := probeCluster(mem, 3)
	if err != nil {
		return err
	}
	defer c.Close()
	rc, err := node.DialRemote(ctx, mem, node.RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: repl, KeyTtl: 1 << 20})
	if err != nil {
		return err
	}
	defer rc.Close()

	warm := probeKeys(batchSize)
	fresh := keyPool(1, 20000)
	pairs := make([]node.KV, 0, len(warm)+len(fresh))
	for _, k := range append(append([]uint64(nil), warm...), fresh...) {
		pairs = append(pairs, node.KV{Key: k, Value: k})
	}
	if err := c.Node(1).PublishMany(ctx, pairs); err != nil {
		return err
	}
	if _, err := c.Node(0).QueryMany(ctx, warm); err != nil {
		return err
	}
	var bad error
	hit := func(res node.QueryResult, err error) {
		if bad == nil && (err != nil || !res.FromIndex) {
			bad = fmt.Errorf("warm key missed the index (%v)", err)
		}
	}
	hits := func(res []node.QueryResult, err error) {
		for _, r := range res {
			hit(r, err)
		}
	}
	d, allocs := timeOp(per, 50, nil, func() { hit(c.Node(0).Query(ctx, warm[0])) })
	values["node.member_hit_us"], values["node.member_hit_allocs"] = usOf(d), allocs
	d, allocs = timeOp(per, 50, nil, func() { hit(rc.Query(ctx, warm[0])) })
	values["node.remote_hit_us"], values["node.remote_hit_allocs"] = usOf(d), allocs
	d, _ = timeOp(per, 10, nil, func() { hits(c.Node(0).QueryMany(ctx, warm)) })
	values["node.member_batch32_us"] = usOf(d)
	d, _ = timeOp(per, 10, nil, func() { hits(rc.QueryMany(ctx, warm)) })
	values["node.remote_batch32_us"] = usOf(d)

	next := 0
	d, _ = timeOp(per, 20, nil, func() {
		if next == len(fresh) {
			return // reported as an error below
		}
		res, err := c.Node(0).Query(ctx, fresh[next])
		next++
		if bad == nil && (err != nil || !res.Answered || res.FromIndex) {
			bad = fmt.Errorf("fresh key was not a broadcast-answered miss (%v)", err)
		}
	})
	values["node.member_miss_us"] = usOf(d)
	if next == len(fresh) && bad == nil {
		bad = fmt.Errorf("member_miss probe used up its %d keys", len(fresh))
	}

	d, _ = timeOp(per, 5, nil, func() { c.Node(0).Metrics().Snapshot() })
	values["obs.snapshot_us"] = usOf(d)
	return bad
}

// probeFacade prices the public client package over the engine it wraps:
// the same local hit on a one-member cluster through pdht/client and
// through the node directly.
func probeFacade(values map[string]float64, per time.Duration, _ string) error {
	ctx := context.Background()
	key := probeKeys(1)[0]
	cl, err := client.Open(ctx, client.WithTCP())
	if err != nil {
		return err
	}
	defer cl.Close()
	nd, err := node.New(transport.NewTCP(), node.DefaultConfig())
	if err != nil {
		return err
	}
	defer nd.Close()
	if err := cl.Publish(ctx, key, key); err != nil {
		return err
	}
	if err := nd.Publish(ctx, key, key); err != nil {
		return err
	}
	var bad error
	viaClient := func() {
		if _, err := cl.Query(ctx, key); err != nil && bad == nil {
			bad = err
		}
	}
	viaNode := func() {
		if _, err := nd.Query(ctx, key); err != nil && bad == nil {
			bad = err
		}
	}
	viaClient()
	viaNode()
	values["client.facade_ns"] = timeExtra(per, 500, viaNode, viaClient)
	return bad
}

// probeLocal prices the layers that never touch a socket.
func probeLocal(values map[string]float64, per time.Duration, _ string) error {
	keys := probeKeys(8192)

	cache, err := core.NewCache(4096)
	if err != nil {
		return err
	}
	for i, k := range keys[:4096] {
		cache.Put(keyspace.Key(k), core.Value(k), 1000+i, 0)
	}
	i := 0
	d, _ := timeOp(per, 1000, nil, func() { cache.Get(keyspace.Key(keys[i%4096]), 1); i++ })
	values["core.cache_get_ns"] = d
	d, _ = timeOp(per, 1000, nil, func() { cache.Refresh(keyspace.Key(keys[i%4096]), 1<<20, 1); i++ })
	values["core.cache_refresh_ns"] = d
	// The cache is full, so every new key evicts; later deadlines keep the
	// newcomer from being the victim.
	expires := 1 << 21
	d, _ = timeOp(per, 1000, nil, func() {
		cache.Put(keyspace.Key(keys[i%len(keys)]+uint64(i)), 1, expires, 1)
		expires++
		i++
	})
	values["core.cache_put_evict_ns"] = d

	addrs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "127.0.0.1:" + strconv.Itoa(20000+i)
		}
		return out
	}
	ring := keyspace.NewMemberRing(addrs(members), repl)
	d, _ = timeOp(per, 1000, nil, func() { ring.Group(keyspace.Key(keys[i%len(keys)])); i++ })
	values["keyspace.group_ns"] = d
	from := addrs(members)[0]
	d, _ = timeOp(per, 1000, nil, func() { ring.RouteHops(from, keyspace.Key(keys[i%len(keys)])); i++ })
	values["keyspace.route_hops_ns"] = d
	big := addrs(128)
	d, _ = timeOp(per, 1, nil, func() { keyspace.NewMemberRing(big, repl) })
	values["keyspace.new_ring_us"] = usOf(d)
	bigRing := keyspace.NewMemberRing(big, repl)
	joined, left := []string{"127.0.0.1:30000"}, []string{big[64]}
	d, _ = timeOp(per, 1, nil, func() { bigRing.Apply(joined, left) })
	values["keyspace.apply_us"] = usOf(d)

	ctx := context.Background()
	set := addrs(repl)
	d, _ = timeOp(per, 100, nil, func() {
		replica.Fanout(ctx, set, func(context.Context, string) bool { return true })
	})
	values["replica.fanout3_us"] = usOf(d)

	tuner, err := adapt.NewTuner(adapt.Config{})
	if err != nil {
		return err
	}
	zs := zipf.NewSampler(zipf.MustNew(zipfAlpha, len(keys)), rand.New(rand.NewPCG(1, 1)))
	draw := func() uint64 { return keys[zs.Sample()] }
	d, _ = timeOp(per, 1000, nil, func() { tuner.Observe(draw()) })
	observe := d
	d, _ = timeOp(per, 1000, nil, func() { draw() })
	values["adapt.observe_ns"] = observe - d
	in := adapt.Inputs{Members: members, Observers: 1, Capacity: 8192, Repl: repl, Env: 0.5, RefreshFanout: true, WindowRounds: 60}
	var bad error
	d, _ = timeOp(per, 1, func() {
		for j := 0; j < 2000; j++ {
			tuner.Observe(draw())
		}
	}, func() {
		if _, err := tuner.Retune(in); err != nil && bad == nil {
			bad = err
		}
	})
	values["adapt.retune_us"] = usOf(d)
	d, _ = timeOp(per, 1000, nil, func() { tuner.ShouldIndex(keys[i%len(keys)]); i++ })
	values["adapt.should_index_ns"] = d

	h := obs.NewRegistry().Histogram("probe_seconds", "", nil)
	d, _ = timeOp(per, 1000, nil, func() { h.Observe(time.Duration(i) * time.Microsecond); i++ })
	values["obs.histogram_observe_ns"] = d
	return bad
}

// probeStore prices the durability plane: one WAL append under the default
// SyncInterval policy, and reopening a store that holds 10 000 records.
func probeStore(values map[string]float64, per time.Duration, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenFile(store.FileOptions{Dir: dir})
	if err != nil {
		return err
	}
	keys := probeKeys(10000)
	deadline := time.Now().Add(time.Hour)
	var bad error
	i := 0
	d, _ := timeOp(per, 100, nil, func() {
		k := keys[i%len(keys)]
		i++
		if err := st.Append(store.Record{Op: store.OpInsert, Key: k, Value: k, Deadline: deadline}); err != nil && bad == nil {
			bad = err
		}
	})
	values["store.append_us"] = usOf(d)
	for _, k := range keys {
		if err := st.Append(store.Record{Op: store.OpInsert, Key: k, Value: k, Deadline: deadline}); err != nil && bad == nil {
			bad = err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	d, _ = timeOp(per, 1, nil, func() {
		re, err := store.OpenFile(store.FileOptions{Dir: dir})
		if err != nil {
			if bad == nil {
				bad = err
			}
			return
		}
		if n := re.Stats().Recovered; n != len(keys) && bad == nil {
			bad = fmt.Errorf("recovered %d of %d records", n, len(keys))
		}
		re.Close()
	})
	values["store.recover_ms"] = msOf(d)
	return bad
}

// probeGossip prices the membership layer: answering one ping with a
// 5-member table, and booting 5 members on TCP until every view agrees —
// the part of setup_s that is gossip's.
func probeGossip(values map[string]float64, per time.Duration, _ string) error {
	svc, err := gossip.New(gossip.Config{Addr: "m0"}, func(context.Context, string, transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, false, transport.ErrUnreachable
	})
	if err != nil {
		return err
	}
	var table []transport.PeerState
	for i := 1; i < members; i++ {
		table = append(table, transport.PeerState{Addr: "m" + strconv.Itoa(i), Status: uint8(gossip.StatusAlive)})
	}
	svc.MergeState(transport.Gossip{Kind: transport.GossipSync, Full: true, Updates: table})
	ping := transport.Gossip{Kind: transport.GossipPing, From: "m1"}
	d, _ := timeOp(per, 500, nil, func() { svc.HandleMessage(ping) })
	values["gossip.handle_ping_us"] = usOf(d)

	var (
		c   *node.Cluster
		bad error
	)
	closePrev := func() {
		if c != nil {
			c.Close()
			c = nil
		}
	}
	d, _ = timeOp(per, 1, closePrev, func() {
		var err error
		if c, err = probeCluster(transport.NewTCP(), members); err != nil && bad == nil {
			bad = err
		}
	})
	closePrev()
	values["gossip.converge5_ms"] = msOf(d)
	return bad
}
