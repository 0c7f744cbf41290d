package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pdht/internal/adapt"
	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/replica"
	"pdht/internal/stats"
	"pdht/internal/topk"
	"pdht/internal/transport"
)

// engine is the selection algorithm of §5.1 — search the index, broadcast on
// a miss, insert with keyTtl, reset the TTL on a hit — with its batched and
// top-k forms, written once for both hosts: a Node embeds it next to its
// serving state, a RemoteClient next to its view re-sync. Everything a host
// contributes is data or one of two hooks below; the engine never asks
// which host it runs in. The one thing it does branch on is whether it has
// an address of its own: legs addressed to self are served in-process and
// cost no message, and a host without one (self == "") has no content store
// to search before a broadcast.
//
// Every field but the atomics view, closed and traceSeq is set before New
// or DialRemote returns and never written again. The engine takes no lock:
// tuner, planner, pool and m each guard themselves.
type engine struct {
	// self is the host's serving address; "" for a non-member, which then
	// pays one wire message per probe where a member pays the overlay route
	// (view.hops).
	self string
	// repl is the configured replica-group size (the top-k planner sizes its
	// cold-start round by it); staticTtl the configured keyTtl, superseded by
	// the tuner's recommendation once it has one.
	repl      int
	staticTtl int
	// callTimeout caps every outbound RPC.
	callTimeout time.Duration

	traceSampling float64
	traceHook     func(obs.QueryTrace)
	slowLog       *obs.SlowLog // nil: no slow-query ring
	// traceSeq drives wire-trace ID generation and sub-rate sampling — one
	// atomic add per *traced* query, nothing on the untraced hot path.
	traceSeq atomic.Uint64

	// tuner is the adaptive control plane: it sees every queried key, sets
	// keyTtl and gates inserts below fMin. Nil — static keyTtl, every
	// resolved key indexed — on a non-adaptive member and on every client.
	tuner *adapt.Tuner
	// planner schedules top-k probes from yield history, weighting terms by
	// the tuner's sketch when there is one. It has its own lock.
	planner *topk.Planner

	pool *pool
	m    *nodeMetrics

	// view is the installed membership view, nil until the first install.
	// Views are immutable and replaced whole: readers load one without a
	// lock and keep it for a leg sequence, so placement and the hash on its
	// RPCs come from one member list. On a member, New stores the first
	// (after assigning Node.gossip: a reader that saw a view may use gossip)
	// and applyMembership the rest, under Node.mu in the critical section
	// that snapshots the handoff entries; serveData loads it under Node.mu,
	// so a served write is in that snapshot or refused as stale.
	view atomic.Pointer[view]
	// closed is set once by Close; no leg starts after it. On a member it
	// is stored under Node.mu, so a membership change or Publish that saw it
	// clear finishes (handoffs.Add, journal append) before Close proceeds.
	closed atomic.Bool
	// local executes a request addressed to self in-process. Never reached
	// when self is "".
	local func(transport.Request) transport.Response
	// stale hands a StaleView refusal, with the refuser's membership state
	// attached, to the host and reports what the query should do next.
	stale func(transport.Response) staleAction
}

// staleAction is what a host made of one StaleView refusal.
type staleAction int

const (
	// staleMiss: the refuser's state went to the membership layer, which
	// installs views on its own clock; the leg counts as a miss.
	staleMiss staleAction = iota
	// staleReroute: a fresher view was installed from the attached state;
	// the query routes again, once.
	staleReroute
	// staleFail: nothing usable was attached — the view can be neither
	// trusted nor refreshed.
	staleFail
)

// currentView is the view a leg sequence routes by, or the typed reason
// there is none: ErrClosed once Close has started, ErrNoMembers before the
// first install.
func (e *engine) currentView() (*view, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	v := e.view.Load()
	if v == nil {
		return nil, ErrNoMembers
	}
	return v, nil
}

// Members returns the host's current membership view, sorted; nil before
// the first install.
func (e *engine) Members() []string {
	v := e.view.Load()
	if v == nil {
		return nil
	}
	return append([]string(nil), v.members...)
}

// keyTtl is the expiration time attached to inserts and refreshes from here
// on: the tuner's latest recommendation when the control plane has one, the
// static knob otherwise. Entries already granted a TTL keep it — a retune
// only changes what future inserts and refreshes receive.
func (e *engine) keyTtl() int {
	if e.tuner != nil {
		if ttl, ok := e.tuner.KeyTtl(); ok {
			return ttl
		}
	}
	return e.staticTtl
}

// call performs one RPC leg. A leg addressed to self is served in-process:
// no wire, no message, and no view-hash check — a peer always agrees with
// itself. Every other leg is bounded by both the caller's context and
// callTimeout: a cancelled request aborts its in-flight legs, and a patient
// caller still cannot hang on one dead peer longer than callTimeout. When
// the caller's trace has a wire ID, the request carries it and the
// server-side spans in the reply are stitched into the trace under the
// callee's address.
func (e *engine) call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	if e.self != "" && addr == e.self {
		req.ViewHash = 0
		return e.local(req), nil
	}
	cctx, cancel := context.WithTimeout(ctx, e.callTimeout)
	defer cancel()
	tr := obs.TraceFrom(ctx)
	var start time.Time
	if tr != nil {
		if req.TraceID = tr.WireID(); req.TraceID != 0 {
			start = time.Now()
		}
	}
	resp, err := e.pool.call(cctx, addr, req)
	if err != nil {
		e.m.rpcFailures.Add(1)
	} else if req.TraceID != 0 {
		tr.AddSpans(addr, start, resp.Spans)
	}
	return resp, err
}

// sent counts one message toward *n unless the leg stays in-process. Counted
// at send: a leg that fails or is refused still cost its message.
func (e *engine) sent(addr string, mu *sync.Mutex, n *int) {
	if addr == e.self {
		return
	}
	mu.Lock()
	*n++
	mu.Unlock()
}

// accept inspects an application-level reply: a StaleView refusal goes to
// the host (refused), and it or any other application error makes the reply
// unusable.
func (e *engine) accept(ctx context.Context, addr string, resp transport.Response) bool {
	if resp.Err == transport.StaleView {
		e.refused(ctx, addr, resp)
	}
	return resp.Err == ""
}

// refused handles one StaleView refusal: counted, handed to the host with
// the refuser's membership state, and recorded on a traced query as an
// instantaneous "stale-view" leg.
func (e *engine) refused(ctx context.Context, addr string, resp transport.Response) staleAction {
	e.m.staleViews.Add(1)
	act := e.stale(resp)
	if tr := obs.TraceFrom(ctx); tr != nil {
		outcome := "resync"
		if act == staleFail {
			outcome = "unrecoverable"
		}
		tr.Mark("stale-view", addr, outcome)
	}
	return act
}

// leg times one querier-side trace leg. The zero value — an untraced query —
// records nothing and never reads the clock.
type leg struct {
	tr    *obs.Trace
	start time.Time
}

func startLeg(tr *obs.Trace) leg {
	if tr == nil {
		return leg{}
	}
	return leg{tr, time.Now()}
}

func (l leg) end(name, target, outcome string) {
	if l.tr != nil {
		l.tr.Leg(name, target, outcome, l.start)
	}
}

// traced applies the tracing contract shared by Query and QueryTopK: opt-in
// per host (hook or slow log) or per call (a trace already in ctx), with
// cluster-wide propagation sampled per traced query — an unsampled or
// caller-disabled trace stays querier-side only. owned reports that the
// engine opened the trace and must deliver it. The untraced hot path pays
// one context lookup.
func (e *engine) traced(ctx context.Context, key uint64) (_ context.Context, tr *obs.Trace, owned bool) {
	tr = obs.TraceFrom(ctx)
	owned = tr == nil && (e.traceHook != nil || e.slowLog != nil)
	if owned {
		tr = obs.NewTrace(key)
		ctx = obs.WithTrace(ctx, tr)
	}
	if tr != nil && tr.WireID() == 0 {
		tr.SetWireID(sampleWireID(&e.traceSeq, e.traceSampling))
	}
	return ctx, tr, owned
}

// deliver finishes an owned trace and hands it to the slow log and the hook.
func (e *engine) deliver(tr *obs.Trace, outcome string) {
	qt := tr.Finish(outcome)
	if e.slowLog != nil {
		e.slowLog.Record(qt)
	}
	if e.traceHook != nil {
		e.traceHook(qt)
	}
}

// sampleWireID decides whether one traced query propagates its trace over
// the wire, and mints its cluster-wide ID when it does. One atomic add plus
// a splitmix64 finalizer — no allocations, no rand locks — so per-query
// sampling is cheap enough to sit next to trace creation. Returns 0
// (meaning "client-side only") for unsampled queries.
func sampleWireID(seq *atomic.Uint64, rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	id := mix64(seq.Add(1))
	if id == 0 {
		id = 1 // zero means untraced on the wire
	}
	if rate >= 1 {
		return id
	}
	// The mixed sequence is uniform over uint64; its top 53 bits make the
	// sampling coin.
	if float64(id>>11)/float64(1<<53) < rate {
		return id
	}
	return 0
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ---- the selection algorithm ----

// QueryResult reports one end-to-end query, mirroring simcore.QueryOutcome
// with live-deployment detail.
type QueryResult struct {
	// Answered reports whether the query resolved at all; FromIndex
	// whether the index answered it (the pIndxd events of eq. 14).
	Answered  bool
	FromIndex bool
	Value     uint64
	// Responsible is the peer routing selected; AnsweredBy the peer that
	// actually supplied the value (a replica on a flood hit, a content
	// holder on a broadcast).
	Responsible string
	AnsweredBy  string
	// IndexMsgs, BroadcastMsgs and InsertMsgs break down the cost in the
	// legs of eq. 17; RefreshMsgs counts the reset-on-hit refresh legs a
	// hit fans out to the key's replica set, and RepairMsgs the read-repair
	// re-inserts sent to set members that answered the refresh without
	// holding the entry (the primary after losing it to churn). Legs a
	// member serves itself are not messages and count nowhere.
	IndexMsgs     int
	BroadcastMsgs int
	InsertMsgs    int
	RefreshMsgs   int
	RepairMsgs    int
	// failoverMsgs is the share of IndexMsgs spent on failover probes past
	// the primary — filed as replica-flood, the rest as lookup.
	failoverMsgs int
	// InsertGated reports that the broadcast resolved the key but the
	// adaptive control plane refused to index it (estimated rate below
	// fMin).
	InsertGated bool
}

// Total returns the query's full message cost.
func (r QueryResult) Total() int {
	return r.IndexMsgs + r.BroadcastMsgs + r.InsertMsgs + r.RefreshMsgs + r.RepairMsgs
}

// Query resolves key with the selection algorithm of §5.1: search the
// index (routing locally, asking the responsible peer — and on a miss the
// rest of the replica group — one RPC each), broadcast on a miss, insert
// the broadcast result with keyTtl, and refresh the TTL on a hit.
//
// The context bounds the whole request: cancellation or deadline expiry
// aborts the in-flight index, broadcast and insert legs and returns
// context.Canceled or ErrTimeout (every outbound leg is additionally
// capped at CallTimeout). A query that runs to completion but resolves
// nothing is not an error — Answered stays false. A client whose view a
// peer refuses as stale installs the state attached to the refusal and
// routes again, once; when nothing usable was attached it fails with
// ErrStaleView rather than route over a member list it cannot trust.
func (e *engine) Query(ctx context.Context, key uint64) (QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return QueryResult{}, ctxErr(err)
	}
	ctx, tr, owned := e.traced(ctx, key)
	start := time.Now()
	e.m.queries.Inc()
	if e.tuner != nil {
		// Feed the frequency sketches — O(1), allocation-free.
		e.tuner.Observe(key)
	}
	var res QueryResult
	err := e.resolve(ctx, key, &res, "")
	e.m.observeQuery(res, time.Since(start))
	e.m.fileMessages(res)
	if owned {
		e.deliver(tr, queryOutcome(res, err))
	}
	return res, err
}

// queryOutcome labels a finished query for its trace.
func queryOutcome(res QueryResult, err error) string {
	switch {
	case err != nil:
		return "error"
	case res.FromIndex:
		return "hit"
	case res.InsertGated:
		return "gated"
	case res.Answered:
		return "broadcast"
	default:
		return "unanswered"
	}
}

// resolve runs the selection algorithm for one key into res: the index
// search — the primary, failing over through the backups in ring order on a
// miss, refusal or timeout — then the miss path. asked names a peer the caller's
// batch leg has already probed for this key ("" on the unary path): the
// walk skips it, and the route to the primary is already priced in res.
func (e *engine) resolve(ctx context.Context, key uint64, res *QueryResult, asked string) error {
	k := keyspace.Key(key)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ctxErr(err)
		}
		v, err := e.currentView()
		if err != nil {
			return err
		}
		probes := v.Replicas(k)
		if asked == "" {
			if len(probes) > 0 {
				res.Responsible = probes[0]
			}
			res.IndexMsgs += v.hops(e.self, k)
		}
		rerouted, failed := false, false
	walk:
		for i, addr := range probes {
			if addr == asked {
				continue
			}
			if err := ctx.Err(); err != nil {
				return ctxErr(err)
			}
			if (i > 0 || asked != "") && addr != e.self {
				// Hops priced the path to the primary; each failover probe
				// is one more message.
				res.IndexMsgs++
				res.failoverMsgs++
			}
			value, found, act := e.probe(ctx, v, addr, k)
			switch act {
			case staleReroute:
				rerouted = true
				break walk
			case staleFail:
				failed = true
			}
			if !found {
				continue
			}
			res.Answered, res.FromIndex, res.Value, res.AnsweredBy = true, true, value, addr
			e.m.hits.Add(1)
			res.RefreshMsgs, res.RepairMsgs = e.syncHit(ctx, v, probes, k, value)
			return nil
		}
		if rerouted && attempt == 0 {
			continue
		}
		if failed && !rerouted {
			return ErrStaleView
		}
		e.m.misses.Add(1)
		return e.missPath(ctx, k, res)
	}
}

// probe asks one peer whether key is live in its index cache. The probe
// carries the view's membership hash; a refusal or any other failure is a
// miss, and act reports what the host made of a stale-view refusal.
func (e *engine) probe(ctx context.Context, v *view, addr string, k keyspace.Key) (value uint64, found bool, act staleAction) {
	l := startLeg(obs.TraceFrom(ctx))
	resp, err := e.call(ctx, addr, transport.Request{Op: transport.OpQuery, Key: uint64(k), ViewHash: v.hash})
	switch {
	case err != nil:
		l.end("probe", addr, "failed")
		return 0, false, staleMiss
	case resp.Err != "":
		l.end("probe", addr, "refused")
		if resp.Err == transport.StaleView {
			act = e.refused(ctx, addr, resp)
		}
		return 0, false, act
	}
	l.end("probe", addr, hitMiss(resp.Found))
	return resp.Value, resp.Found, staleMiss
}

// hitMiss is the probe-leg outcome label.
func hitMiss(found bool) string {
	if found {
		return "hit"
	}
	return "miss"
}

// syncHit applies the reset-on-hit rule across the key's whole replica set
// (set, in probe order) and read-repairs the holes it finds: every member's TTL is refreshed
// concurrently (each leg derives its deadline from the caller's ctx, capped
// at callTimeout), keeping the set's expiry coherent so a failover probe
// after the primary dies still finds a live entry. A member that answers
// the refresh without holding the entry — the primary after losing it to
// churn, a restart or a failed insert leg — is re-inserted from the value
// the hit supplied. Members that do not answer at all are left alone:
// repairing a dead peer would burn a callTimeout per query on an address
// the membership layer is already evicting.
//
// The fan-out is synchronous — the read-repair guarantee is "the set is
// whole when Query returns", which the tests pin — so a SILENTLY
// partitioned member (no RST; a crashed process refuses in microseconds)
// can hold a hit for up to callTimeout until suspicion convicts it. The
// legs run concurrently, so that bound does not stack per member.
func (e *engine) syncHit(ctx context.Context, v *view, set []string, k keyspace.Key, value uint64) (refreshMsgs, repairMsgs int) {
	ttl := e.keyTtl()
	tr := obs.TraceFrom(ctx)
	// One struct, so the concurrent legs share a single heap object.
	var sent struct {
		sync.Mutex
		refresh, repair int
	}
	replica.Fanout(ctx, set, func(ctx context.Context, addr string) bool {
		e.sent(addr, &sent.Mutex, &sent.refresh)
		l := startLeg(tr)
		resp, err := e.call(ctx, addr, transport.Request{Op: transport.OpRefresh, Key: uint64(k), TTL: ttl, ViewHash: v.hash})
		if err != nil || !e.accept(ctx, addr, resp) {
			l.end("refresh", addr, "failed")
			return false
		}
		if resp.OK {
			l.end("refresh", addr, "ok")
			return true
		}
		// The member answered but does not hold the entry: read repair.
		l.end("refresh", addr, "missing")
		e.m.readRepairs.Add(1)
		e.sent(addr, &sent.Mutex, &sent.repair)
		l = startLeg(tr)
		resp, err = e.call(ctx, addr, transport.Request{Op: transport.OpInsert, Key: uint64(k), Value: value, TTL: ttl, ViewHash: v.hash})
		if err != nil || !e.accept(ctx, addr, resp) || !resp.OK {
			l.end("read-repair", addr, "failed")
			return false
		}
		l.end("read-repair", addr, "ok")
		return true
	})
	return sent.refresh, sent.repair
}

// missPath runs legs 2 and 3 of the selection algorithm after the index
// came up empty: broadcast the key to the membership, and insert the
// resolved value with keyTtl at the replica set unless the adaptive control
// plane gates it. The view is loaded again here, not on the hit fast path —
// which never needs the member list — and because a stale-view refusal on
// the probe leg may have just installed a fresher one, whose hash the
// insert must carry.
func (e *engine) missPath(ctx context.Context, k keyspace.Key, res *QueryResult) error {
	v, err := e.currentView()
	if err != nil {
		return err
	}
	e.m.broadcasts.Add(1)
	tr := obs.TraceFrom(ctx)
	l := startLeg(tr)
	value, foundAt, msgs := e.broadcast(ctx, k, v.members)
	res.BroadcastMsgs = msgs
	if foundAt == "" {
		l.end("broadcast", "", "unanswered")
		if err := ctx.Err(); err != nil {
			// The broadcast was cut short by the caller, not answered in
			// the negative.
			return ctxErr(err)
		}
		e.m.unanswered.Add(1)
		return nil
	}
	l.end("broadcast", foundAt, "answered")
	e.m.broadcastAnswered.Add(1)
	res.Answered, res.Value, res.AnsweredBy = true, value, foundAt

	// Insert the resolved key with keyTtl at every replica — unless the
	// control plane estimates its query rate below fMin, in which case
	// indexing it would cost more than the broadcasts it saves (the §2
	// decision, taken per key, online).
	if e.tuner != nil {
		if !e.tuner.ShouldIndex(uint64(k)) {
			e.m.gatedInserts.Add(1)
			res.InsertGated = true
			if tr != nil {
				tr.Mark("insert-gate", "", "gated")
			}
			return nil
		}
		if tr != nil {
			tr.Mark("insert-gate", "", "allowed")
		}
	}
	l = startLeg(tr)
	res.InsertMsgs = e.insert(ctx, v, k, value)
	l.end("insert", "", "ok")
	e.m.inserts.Add(1)
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	return nil
}

// broadcast fans the query out to every known member — the unstructured
// search (cSUnstr). A host with content of its own searches that first, for
// free; the other members are asked concurrently and the lexicographically
// first answer wins, keeping the result independent of goroutine
// scheduling. The legs inherit the caller's context: a cancelled request
// aborts every in-flight leg instead of waiting out callTimeout on each.
func (e *engine) broadcast(ctx context.Context, k keyspace.Key, members []string) (value uint64, foundAt string, msgs int) {
	req := transport.Request{Op: transport.OpBroadcast, Key: uint64(k)}
	if e.self != "" {
		if resp, _ := e.call(ctx, e.self, req); resp.Found {
			return resp.Value, e.self, 0
		}
	}
	type answer struct {
		addr  string
		value uint64
	}
	var wg sync.WaitGroup
	answers := make(chan answer, len(members)) // one send per leg at most
	for _, m := range members {
		if m == e.self {
			continue
		}
		msgs++
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			resp, err := e.call(ctx, m, req)
			if err == nil && resp.Err == "" && resp.Found {
				answers <- answer{m, resp.Value}
			}
		}(m)
	}
	wg.Wait()
	close(answers)
	for a := range answers {
		if foundAt == "" || a.addr < foundAt {
			value, foundAt = a.value, a.addr
		}
	}
	return value, foundAt, msgs
}

// insert installs key→value with keyTtl at every member of the replica
// set, returning the number of messages spent. The write legs run
// concurrently (replica.Fanout), each bounded by the caller's ctx capped at
// callTimeout — one stalled member cannot serialize the others out of their
// write. A cancelled request stops spawning legs, and the replicas already
// written keep their entries — they expire on their own.
func (e *engine) insert(ctx context.Context, v *view, k keyspace.Key, value uint64) (msgs int) {
	ttl := e.keyTtl()
	var mu sync.Mutex
	replica.Fanout(ctx, v.Replicas(k), func(ctx context.Context, addr string) bool {
		e.sent(addr, &mu, &msgs)
		resp, err := e.call(ctx, addr, transport.Request{Op: transport.OpInsert, Key: uint64(k), Value: value, TTL: ttl, ViewHash: v.hash})
		return err == nil && e.accept(ctx, addr, resp) && resp.OK
	})
	return msgs
}

// ---- the batched form ----

// batch is the one OpBatch leg: items go to addr in a single request under
// the hash of v, the view they were routed by, and the reply passes through
// accept like every routed leg's. Nil means the reply was unusable — the
// call failed, the peer refused it, or the results do not align with items.
func (e *engine) batch(ctx context.Context, v *view, addr string, items []transport.BatchItem) []transport.BatchResult {
	resp, err := e.call(ctx, addr, transport.Request{
		Op: transport.OpBatch, From: e.self, ViewHash: v.hash, Batch: items,
	})
	if err != nil || !e.accept(ctx, addr, resp) || len(resp.Batch) != len(items) {
		return nil
	}
	return resp.Batch
}

// QueryMany resolves a batch of keys with one OpBatch request per
// destination peer: keys are grouped by responsible node, each group
// crosses the wire in a single round trip (query items carry keyTtl, so
// the reset-on-hit refresh is amortized into the same message), and every
// key still gets the full selection algorithm — a key that misses its
// responsible peer falls back to the replica flood, the broadcast and the
// gated insert of the unary path, concurrently per key.
//
// Results align with keys. The context governs the whole fan-out exactly
// as in Query; on cancellation the partial results gathered so far are
// returned with context.Canceled or ErrTimeout.
func (e *engine) QueryMany(ctx context.Context, keys []uint64) ([]QueryResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	v, err := e.currentView()
	if err != nil {
		return nil, err
	}
	e.m.queries.Add(uint64(len(keys)))
	if e.tuner != nil {
		// The batch leg feeds the control plane key by key: the sketches
		// must see the true query stream, not one event per batch.
		for _, key := range keys {
			e.tuner.Observe(key)
		}
	}

	results := make([]QueryResult, len(keys))
	// Deferred: partial results returned with an error spent their messages
	// too. The slots are filled in place, so the deferred call sees them.
	defer e.m.fileMessages(results...)
	groups := make(map[string][]int) // destination → indexes into keys
	// sets keeps each key's placement from this one routing pass: the
	// refresh fan-out of the hits reads it instead of routing again.
	sets := make([][]string, len(keys))
	for i, key := range keys {
		k := keyspace.Key(key)
		sets[i] = v.Replicas(k)
		if len(sets[i]) == 0 {
			continue // no route; the fallback still broadcasts
		}
		primary := sets[i][0]
		results[i].Responsible = primary
		results[i].IndexMsgs = v.hops(e.self, k)
		groups[primary] = append(groups[primary], i)
	}
	ttl := e.keyTtl()

	// Exactly one OpBatch per destination, concurrently. Result slots are
	// disjoint per group, so no lock is needed.
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			items := make([]transport.BatchItem, len(idxs))
			for j, i := range idxs {
				items[j] = transport.BatchItem{Op: transport.OpQuery, Key: keys[i], TTL: ttl}
			}
			// An unusable reply leaves the whole group to fall back per key.
			for j, br := range e.batch(ctx, v, addr, items) {
				if i := idxs[j]; br.Err == "" && br.Found {
					results[i].Answered, results[i].FromIndex = true, true
					results[i].Value, results[i].AnsweredBy = br.Value, addr
				}
			}
		}(addr, idxs)
	}
	wg.Wait()

	// Count hits now; unresolved keys take the fallback path. The check
	// runs before spawning fallbacks so a cancelled batch returns without
	// firing len(keys) broadcasts.
	var fallbacks []int
	for i := range results {
		if results[i].Answered {
			e.m.hits.Add(1)
		} else {
			fallbacks = append(fallbacks, i)
		}
	}
	// Replica-coherent reset-on-hit for the batch hits, before the
	// fallbacks run — fallback hits sync through syncHit on their own.
	e.syncBatchHits(ctx, v, keys, sets, results, ttl)
	if err := ctx.Err(); err != nil {
		return results, ctxErr(err)
	}
	var ferr error
	var errMu sync.Mutex
	for _, i := range fallbacks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The batch leg already asked the responsible peer: the walk
			// resumes at the failover probes.
			if err := e.resolve(ctx, keys[i], &results[i], results[i].Responsible); err != nil {
				errMu.Lock()
				if ferr == nil {
					ferr = err
				}
				errMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return results, ferr
}

// syncBatchHits fans the reset-on-hit refresh of every batch hit out to the
// rest of the key's replica set — the query items already refreshed the
// answering peer, the TTL rode with them — and read-repairs members that
// answered without holding an entry with a follow-up OpBatch of inserts.
// The batched counterpart of syncHit: same coherence, one round trip per
// destination instead of one RPC per (key, member). Placement (sets, aligned
// with keys) and the hash come from the view the batch was routed under —
// stamping one view's hash onto placements computed from another would get
// every leg refused mid-transition.
func (e *engine) syncBatchHits(ctx context.Context, v *view, keys []uint64, sets [][]string, results []QueryResult, ttl int) {
	groups := make(map[string][]int) // destination → indexes into keys
	for i := range results {
		if !results[i].FromIndex {
			continue
		}
		for _, addr := range sets[i] {
			if addr != results[i].AnsweredBy {
				groups[addr] = append(groups[addr], i)
			}
		}
	}
	// resMu guards the per-result counters: a key's backups live at
	// different destinations, so two goroutines may touch the same result.
	var resMu sync.Mutex
	// send ships the keys at idxs to addr as one batch of refresh items, or
	// of read-repair inserts, counting one message per item unless the leg
	// stays in-process.
	send := func(addr string, idxs []int, repair bool) []transport.BatchResult {
		items := make([]transport.BatchItem, len(idxs))
		for j, i := range idxs {
			items[j] = transport.BatchItem{Op: transport.OpRefresh, Key: keys[i], TTL: ttl}
			if repair {
				items[j].Op, items[j].Value = transport.OpInsert, results[i].Value
			}
		}
		if addr != e.self {
			resMu.Lock()
			for _, i := range idxs {
				if repair {
					results[i].RepairMsgs++
				} else {
					results[i].RefreshMsgs++
				}
			}
			resMu.Unlock()
		}
		return e.batch(ctx, v, addr, items)
	}
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			refreshed := send(addr, idxs, false)
			// Read repair: members that answered the refresh without the
			// entry get it re-inserted, one more round trip.
			var repairs []int
			for j, br := range refreshed {
				if br.Err == "" && !br.OK {
					repairs = append(repairs, idxs[j])
				}
			}
			if len(repairs) == 0 || ctx.Err() != nil {
				return
			}
			e.m.readRepairs.Add(uint64(len(repairs)))
			send(addr, repairs, true)
		}(addr, idxs)
	}
	wg.Wait()
}

// ---- the top-k form ----

// QueryTopK coordinates one distributed top-k query: the k best documents
// cluster-wide for the term set, under the threshold-algorithm round
// protocol of internal/topk. The probe schedule is adaptive — the
// planner's yield history orders peers and the tuner's count-min sketch
// (when the host has one; a client observes no query stream, so its term
// weights stay uniform) weights terms — so hot peers are probed deep and
// first, and cold peers are skipped entirely once the threshold bound is
// met (Result.Early).
//
// The context bounds the whole query; cancellation aborts the in-flight
// round and returns the context error. Every remote probe is additionally
// capped at CallTimeout, and a probe that fails is treated as an empty
// peer — replication at the other holders keeps the answer correct.
func (e *engine) QueryTopK(ctx context.Context, terms []uint64, k int) (topk.Result, error) {
	if err := ctx.Err(); err != nil {
		return topk.Result{}, ctxErr(err)
	}
	if k < 1 {
		return topk.Result{}, fmt.Errorf("node: top-k k = %d must be positive", k)
	}
	if len(terms) == 0 {
		return topk.Result{}, fmt.Errorf("node: top-k query without terms")
	}
	ctx, tr, owned := e.traced(ctx, terms[0])
	res, err := e.queryTopK(ctx, terms, k)
	if owned {
		outcome := "topk"
		switch {
		case err != nil:
			outcome = "error"
		case res.Early:
			outcome = "topk-early"
		}
		e.deliver(tr, outcome)
	}
	return res, err
}

// queryTopK runs the round protocol proper; QueryTopK wraps it with the
// trace plumbing.
func (e *engine) queryTopK(ctx context.Context, terms []uint64, k int) (topk.Result, error) {
	v, err := e.currentView()
	if err != nil {
		return topk.Result{}, err
	}
	e.m.topkQueries.Inc()
	if e.tuner != nil {
		// Every term feeds the frequency sketch the planner's weights are
		// derived from — top-k load shapes the control plane like unary
		// query load does.
		for _, t := range terms {
			e.tuner.Observe(t)
		}
	}
	cfg := topk.RunConfig{
		K:       k,
		Terms:   terms,
		Weights: e.planner.Weights(terms),
		Plan:    e.planner.Plan(v.members, e.self, k, e.repl),
	}

	// Content is unrouted, so probes carry no view hash; the scan of the
	// host's own store is a self leg like any other.
	probe := func(pctx context.Context, addr string, req topk.Req) (topk.Resp, error) {
		r, err := e.call(pctx, addr, transport.Request{Op: transport.OpTopK, From: e.self, TopK: &req})
		if err != nil {
			return topk.Resp{}, err
		}
		if r.Err != "" || r.TopK == nil {
			return topk.Resp{}, fmt.Errorf("node: topk probe: %s", r.Err)
		}
		return *r.TopK, nil
	}

	tr := obs.TraceFrom(ctx)
	l := startLeg(tr)
	onRound := func(info topk.RoundInfo) {
		e.m.topkRounds.Inc()
		e.m.topkLegs.Add(uint64(info.Legs))
		e.m.topkCandidates.Set(int64(info.Candidates))
		e.m.addMsgs(stats.MsgTopK, info.Legs)
		l.end("topk-round", "", fmt.Sprintf("%d legs, %d candidates", info.Legs, info.Candidates))
		l = startLeg(tr)
	}

	res := topk.Run(ctx, cfg, probe, onRound)
	if res.Early {
		e.m.topkEarly.Inc()
	}
	if e.tuner != nil {
		e.tuner.ObserveTopK(res.Legs)
	}
	// Credit the peers whose content made the final answer: tomorrow's
	// first round starts at today's productive peers.
	for _, addr := range res.Sources {
		e.planner.Credit(addr)
	}
	if err := ctx.Err(); err != nil {
		return res, ctxErr(err)
	}
	return res, nil
}

// ---- fleet aggregation ----

// ClusterReport polls every member of the current view for a metrics
// snapshot over OpStats and aggregates them into a fleet-wide report:
// per-peer rows, cluster hit rate and pooled latency quantiles, and the
// measured cluster msgs/query — what pdht-top renders. Members that fail to
// answer within the context (or CallTimeout) are skipped; the report covers
// the reachable fleet and fails with ErrNoMembers only when nobody answered.
func (e *engine) ClusterReport(ctx context.Context) (obs.FleetReport, error) {
	if err := ctx.Err(); err != nil {
		return obs.FleetReport{}, ctxErr(err)
	}
	v, err := e.currentView()
	if err != nil {
		return obs.FleetReport{}, err
	}
	var (
		mu    sync.Mutex
		snaps []obs.Snapshot
		wg    sync.WaitGroup
	)
	for _, addr := range v.members {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			resp, err := e.call(ctx, addr, transport.Request{Op: transport.OpStats, From: e.self})
			if err != nil || resp.Err != "" || resp.Stats == nil {
				return
			}
			s := *resp.Stats
			if s.Addr == "" {
				s.Addr = addr
			}
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	if len(snaps) == 0 {
		if err := ctx.Err(); err != nil {
			return obs.FleetReport{}, ctxErr(err)
		}
		return obs.FleetReport{}, ErrNoMembers
	}
	return obs.BuildFleetReport(snaps), nil
}
