package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pdht/internal/adapt"
	"pdht/internal/keyspace"
	"pdht/internal/obs"
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
	// callTimeout caps every round of outbound RPCs (round).
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

// A fanLeg is one leg of a round: the request for addr and, once the round
// has collected it, what came back.
type fanLeg struct {
	addr string
	req  transport.Request
	resp transport.Response
	err  error
	// wire reports that the request went out as a message. A leg served
	// in-process, or not issued because the caller had given up, costs
	// none; a leg that fails or is refused still cost its message.
	wire bool
	// start is when the leg was issued or served, and end when it was
	// collected, on a traced query; start stays zero for a leg the round
	// never issued.
	start, end time.Time
	out        outbound
}

// legsTo appends one leg per address, each carrying req.
func legsTo(legs []fanLeg, addrs []string, req transport.Request) []fanLeg {
	for _, addr := range addrs {
		legs = append(legs, fanLeg{addr: addr, req: req})
	}
	return legs
}

// round carries out every fan-out of the engine, and each single call as a
// round of one. Every remote leg's request is written from the calling
// goroutine first; a leg addressed to self is then served in-process (no
// wire, no message, and no view-hash check — a peer always agrees with
// itself); last, the replies are collected in leg order. All remote legs
// share one deadline, the caller's context capped at callTimeout from the
// round's start: a cancelled request aborts them all, and a patient
// caller still cannot hang on dead peers longer than callTimeout. Since
// every leg is in flight before the first wait, waiting for them in turn
// costs what waiting for them concurrently would — a dead member holds the
// round to the shared deadline once, not once per member. Once ctx is done
// no further leg is issued. When the caller's trace has a wire ID, each
// request carries it and the server-side spans in the reply are stitched
// into the trace under the callee's address as the leg is collected.
// round returns the number of messages sent.
func (e *engine) round(ctx context.Context, legs []fanLeg) (msgs int) {
	tr := obs.TraceFrom(ctx)
	var wireID uint64
	if tr != nil {
		wireID = tr.WireID()
	}
	remote := false
	for i := range legs {
		remote = remote || !e.isSelf(legs[i].addr)
	}
	rctx := ctx
	if remote {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, e.callTimeout)
		defer cancel()
	}
	for i := range legs {
		l := &legs[i]
		if e.isSelf(l.addr) {
			continue
		}
		if l.err = ctx.Err(); l.err != nil {
			continue
		}
		if tr != nil {
			l.start = time.Now()
		}
		l.req.TraceID = wireID
		l.out = e.pool.send(rctx, l.addr, l.req)
		l.wire = true
		msgs++
	}
	for i := range legs {
		l := &legs[i]
		if !e.isSelf(l.addr) {
			continue
		}
		if l.err = ctx.Err(); l.err != nil {
			continue
		}
		if tr != nil {
			l.start = time.Now()
		}
		l.req.ViewHash = 0
		l.resp = e.local(l.req)
		if tr != nil {
			l.end = time.Now()
		}
	}
	for i := range legs {
		l := &legs[i]
		if !l.wire {
			continue
		}
		l.resp, l.err = e.pool.wait(l.out)
		if tr != nil {
			l.end = time.Now()
		}
		if l.err != nil {
			e.m.rpcFailures.Add(1)
		} else if wireID != 0 {
			tr.AddSpans(l.addr, l.start, l.resp.Spans)
		}
	}
	return msgs
}

// isSelf reports that a leg to addr is the host's own, served in-process.
func (e *engine) isSelf(addr string) bool { return e.self != "" && addr == e.self }

// call performs one RPC leg: a round of one.
func (e *engine) call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	legs := [1]fanLeg{{addr: addr, req: req}}
	e.round(ctx, legs[:])
	return legs[0].resp, legs[0].err
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
// context.Canceled or ErrTimeout (every round of outbound legs is
// additionally capped at CallTimeout). A query that runs to completion but
// resolves nothing is not an error — Answered stays false. A client whose
// view a peer refuses as stale installs the state attached to the refusal
// and routes again, once; when nothing usable was attached it fails with
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
	err := e.resolve(ctx, key, &res, nil)
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
// miss, refusal or timeout — then the miss path. asked names the set
// members a batch has already asked for this key (nil on the unary path):
// the walk skips them, and the route to the primary is already priced in
// res.
func (e *engine) resolve(ctx context.Context, key uint64, res *QueryResult, asked []string) error {
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
		if asked == nil {
			if len(probes) > 0 {
				res.Responsible = probes[0]
			}
			res.IndexMsgs += v.hops(e.self, k)
		}
		rerouted, failed := false, false
	walk:
		for i, addr := range probes {
			if slices.Contains(asked, addr) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return ctxErr(err)
			}
			if (i > 0 || asked != nil) && addr != e.self {
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
			refreshMsgs, repairMsgs := e.syncHit(ctx, v, probes, k, value)
			res.RefreshMsgs += refreshMsgs
			res.RepairMsgs += repairMsgs
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

// replBuf is the replica-set size a fan-out's legs fit in without a heap
// allocation; a larger Repl spills over.
const replBuf = 4

// syncHit applies the reset-on-hit rule across the key's whole replica set
// (set, in probe order) and read-repairs the holes it finds: one round
// refreshes every member's TTL, keeping the set's expiry coherent so a
// failover probe after the primary dies still finds a live entry, and a
// second round re-inserts the value the hit supplied at every member that
// answered the refresh without holding the entry — the primary after losing
// it to churn, a restart or a failed insert leg. Members that do not answer
// at all are left alone: repairing a dead peer would burn a callTimeout per
// query on an address the membership layer is already evicting.
//
// The fan-out is synchronous — the read-repair guarantee is "the set is
// whole when Query returns", which the tests pin — so a SILENTLY
// partitioned member (no RST; a crashed process refuses in microseconds)
// can hold a hit for up to callTimeout per round until suspicion convicts
// it. The legs of a round share that deadline, so it does not stack per
// member.
func (e *engine) syncHit(ctx context.Context, v *view, set []string, k keyspace.Key, value uint64) (refreshMsgs, repairMsgs int) {
	ttl := e.keyTtl()
	tr := obs.TraceFrom(ctx)
	var buf [replBuf]fanLeg
	legs := legsTo(buf[:0], set, transport.Request{Op: transport.OpRefresh, Key: uint64(k), TTL: ttl, ViewHash: v.hash})
	refreshMsgs = e.round(ctx, legs)
	// The repair legs overwrite the refresh legs already read.
	repairs := legs[:0]
	for i := range legs {
		addr, start, end, resp := legs[i].addr, legs[i].start, legs[i].end, legs[i].resp
		outcome := "failed"
		switch {
		case legs[i].err != nil || !e.accept(ctx, addr, resp):
		case resp.OK:
			outcome = "ok"
		default:
			outcome = "missing"
			repairs = append(repairs, fanLeg{addr: addr, req: transport.Request{
				Op: transport.OpInsert, Key: uint64(k), Value: value, TTL: ttl, ViewHash: v.hash,
			}})
		}
		if tr != nil && !start.IsZero() {
			tr.LegEnded("refresh", addr, outcome, start, end)
		}
	}
	if len(repairs) == 0 {
		return refreshMsgs, 0
	}
	e.m.readRepairs.Add(uint64(len(repairs)))
	repairMsgs = e.round(ctx, repairs)
	for i := range repairs {
		l := &repairs[i]
		outcome := "failed"
		if l.err == nil && e.accept(ctx, l.addr, l.resp) && l.resp.OK {
			outcome = "ok"
		}
		if tr != nil && !l.start.IsZero() {
			tr.LegEnded("read-repair", l.addr, outcome, l.start, l.end)
		}
	}
	return refreshMsgs, repairMsgs
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
// free; the other members are asked in one round and the lexicographically
// first answer wins, keeping the result independent of reply timing. A
// cancelled request aborts the round instead of waiting out callTimeout.
func (e *engine) broadcast(ctx context.Context, k keyspace.Key, members []string) (value uint64, foundAt string, msgs int) {
	req := transport.Request{Op: transport.OpBroadcast, Key: uint64(k)}
	if e.self != "" {
		if resp := e.local(req); resp.Found {
			return resp.Value, e.self, 0
		}
	}
	legs := make([]fanLeg, 0, len(members))
	for _, m := range members {
		if m != e.self {
			legs = append(legs, fanLeg{addr: m, req: req})
		}
	}
	msgs = e.round(ctx, legs)
	for i := range legs {
		l := &legs[i]
		if l.err == nil && l.resp.Err == "" && l.resp.Found && (foundAt == "" || l.addr < foundAt) {
			value, foundAt = l.resp.Value, l.addr
		}
	}
	return value, foundAt, msgs
}

// insert installs key→value with keyTtl at every member of the replica
// set in one round, returning the number of messages spent: one stalled
// member cannot serialize the others out of their write. A cancelled
// request stops issuing legs, and the replicas already written keep their
// entries — they expire on their own.
func (e *engine) insert(ctx context.Context, v *view, k keyspace.Key, value uint64) (msgs int) {
	var buf [replBuf]fanLeg
	legs := legsTo(buf[:0], v.Replicas(k), transport.Request{
		Op: transport.OpInsert, Key: uint64(k), Value: value, TTL: e.keyTtl(), ViewHash: v.hash,
	})
	msgs = e.round(ctx, legs)
	for i := range legs {
		if legs[i].err == nil {
			e.accept(ctx, legs[i].addr, legs[i].resp)
		}
	}
	return msgs
}

// ---- the batched form ----

// batchResults is the reply of a collected OpBatch leg, passed through
// accept like every routed leg's. Nil means the reply was unusable — the
// call failed, the peer refused it, or the results do not align with the
// items.
func (e *engine) batchResults(ctx context.Context, l *fanLeg) []transport.BatchResult {
	if l.err != nil || !e.accept(ctx, l.addr, l.resp) || len(l.resp.Batch) != len(l.req.Batch) {
		return nil
	}
	return l.resp.Batch
}

// destinations groups item indexes into slots, one OpBatch request each,
// slots in the order they are opened — the order their legs are issued and
// collected in. A peer has one slot until it holds transport.MaxBatchItems
// indexes; the next index opens it another, so no request outgrows a frame.
type destinations struct {
	addrs []string
	idxs  [][]int        // aligned with addrs
	at    map[string]int // each peer's open slot
}

func (d *destinations) add(addr string, i int) {
	j, ok := d.at[addr]
	if !ok || len(d.idxs[j]) == transport.MaxBatchItems {
		if d.at == nil {
			d.at = make(map[string]int)
		}
		j = len(d.addrs)
		d.at[addr] = j
		d.addrs = append(d.addrs, addr)
		d.idxs = append(d.idxs, nil)
	}
	d.idxs[j] = append(d.idxs[j], i)
}

// batchLegs builds one OpBatch leg per slot, item(i) the item of index i:
// the items of a slot go to its peer in a single request carrying hash —
// that of the view they were routed by, or 0 for writes that span a view
// change (handoff).
func (e *engine) batchLegs(hash uint64, d *destinations, item func(i int) transport.BatchItem) []fanLeg {
	legs := make([]fanLeg, len(d.addrs))
	for j, addr := range d.addrs {
		items := make([]transport.BatchItem, len(d.idxs[j]))
		for n, i := range d.idxs[j] {
			items[n] = item(i)
		}
		legs[j] = fanLeg{addr: addr, req: transport.Request{
			Op: transport.OpBatch, ViewHash: hash, Batch: items,
		}}
	}
	return legs
}

// A setAnswer is what one member of a key's replica set told QueryMany's
// round about the key.
type setAnswer uint8

const (
	// unanswered: the leg failed or was refused, or the item was.
	unanswered setAnswer = iota
	notHeld
	held
)

// QueryMany resolves a batch of keys in one round of one OpBatch request
// per destination peer (per transport.MaxBatchItems items of it). Every key's whole replica set is asked at once: the
// primary gets a query item carrying keyTtl (the probe, with the
// reset-on-hit refresh amortized into it), each backup a refresh item
// carrying the same TTL, whose reply says whether the backup holds the
// entry. From those answers each key takes one of three paths:
//
//   - a hit at the primary is done; backups that answered without the
//     entry are read-repaired;
//   - when the primary misses or fails but a backup holds the key, one
//     follow-up round asks the first holder in set order for the value,
//     and the members that answered without the entry are read-repaired;
//   - a key no member holds falls back to the unary walk, which skips the
//     primary and the backups that answered without the entry — so a key
//     every member answered for goes straight to the broadcast and the
//     gated insert of the unary path.
//
// Follow-up and repair legs are batched per destination too, and the keys
// left to the broadcast or the unary walk run concurrently, per key.
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
	// One routing pass places every key; nothing routes the batch again.
	sets := make([][]string, len(keys))
	stride := 0
	for i, key := range keys {
		sets[i] = v.Replicas(keyspace.Key(key))
		stride = max(stride, len(sets[i]))
	}
	// Slot i*stride+j stands for member j of key i's set: the primary at
	// j = 0, the backups after it.
	var dests destinations
	for i, set := range sets {
		if len(set) == 0 {
			continue // no route; the fallback still broadcasts
		}
		results[i].Responsible = set[0]
		results[i].IndexMsgs = v.hops(e.self, keyspace.Key(keys[i]))
		for j, addr := range set {
			dests.add(addr, i*stride+j)
		}
	}
	ttl := e.keyTtl()
	legs := e.batchLegs(v.hash, &dests, func(s int) transport.BatchItem {
		if s%stride == 0 {
			return transport.BatchItem{Op: transport.OpQuery, Key: keys[s/stride], TTL: ttl}
		}
		return transport.BatchItem{Op: transport.OpRefresh, Key: keys[s/stride], TTL: ttl}
	})
	e.round(ctx, legs)
	answers := make([]setAnswer, len(keys)*stride)
	for j := range legs {
		// An unusable reply leaves every slot it carried unanswered.
		brs := e.batchResults(ctx, &legs[j])
		for n, s := range dests.idxs[j] {
			i, primary := s/stride, s%stride == 0
			if !primary && legs[j].wire {
				// Re-filed as failover probes below when no member holds
				// the key.
				results[i].RefreshMsgs++
			}
			switch {
			case brs == nil || brs[n].Err != "":
			case primary && brs[n].Found:
				answers[s] = held
				results[i].Answered, results[i].FromIndex = true, true
				results[i].Value, results[i].AnsweredBy = brs[n].Value, legs[j].addr
			case !primary && brs[n].OK:
				answers[s] = held
			default:
				answers[s] = notHeld
			}
		}
	}
	// setOf is key i's row of answers, aligned with sets[i].
	setOf := func(i int) []setAnswer { return answers[i*stride : i*stride+len(sets[i])] }

	// Keys a backup holds ask the first holder for the value; keys no
	// member holds are left to the fallback, their backup legs having been
	// failover probes after all.
	var fetch destinations
	var fallbacks []int
	for i := range keys {
		switch h := slices.Index(setOf(i), held); {
		case h == 0:
		case h > 0:
			fetch.add(sets[i][h], i)
		default:
			r := &results[i]
			r.IndexMsgs += r.RefreshMsgs
			r.failoverMsgs += r.RefreshMsgs
			r.RefreshMsgs = 0
			fallbacks = append(fallbacks, i)
		}
	}
	if len(fetch.addrs) > 0 {
		// The holder's TTL was reset by the refresh item; this query item
		// carries none.
		legs := e.batchLegs(v.hash, &fetch, func(i int) transport.BatchItem {
			return transport.BatchItem{Op: transport.OpQuery, Key: keys[i]}
		})
		e.round(ctx, legs)
		for j := range legs {
			brs := e.batchResults(ctx, &legs[j])
			for n, i := range fetch.idxs[j] {
				r := &results[i]
				if legs[j].wire {
					r.IndexMsgs++
					r.failoverMsgs++
				}
				if brs == nil || brs[n].Err != "" || !brs[n].Found {
					fallbacks = append(fallbacks, i)
					continue
				}
				r.Answered, r.FromIndex, r.Value, r.AnsweredBy = true, true, brs[n].Value, legs[j].addr
			}
		}
	}

	// Count the hits and read-repair them: members that answered without
	// the entry get it re-inserted from the value the hit supplied, one
	// more round trip per destination.
	var repairs destinations
	for i := range results {
		if !results[i].FromIndex {
			continue
		}
		e.m.hits.Add(1)
		for j, a := range setOf(i) {
			if a == notHeld {
				repairs.add(sets[i][j], i)
			}
		}
	}
	if len(repairs.addrs) > 0 && ctx.Err() == nil {
		legs := e.batchLegs(v.hash, &repairs, func(i int) transport.BatchItem {
			return transport.BatchItem{Op: transport.OpInsert, Key: keys[i], Value: results[i].Value, TTL: ttl}
		})
		for _, idxs := range repairs.idxs {
			e.m.readRepairs.Add(uint64(len(idxs)))
		}
		e.round(ctx, legs)
		for j := range legs {
			if legs[j].wire {
				for _, i := range repairs.idxs[j] {
					results[i].RepairMsgs++
				}
			}
			e.batchResults(ctx, &legs[j])
		}
	}

	// The check runs before spawning fallbacks so a cancelled batch returns
	// without firing len(keys) broadcasts.
	if err := ctx.Err(); err != nil {
		return results, ctxErr(err)
	}
	var ferr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for _, i := range fallbacks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := e.resolve(ctx, keys[i], &results[i], settled(sets[i], setOf(i))); err != nil {
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

// settled lists the members of a key's set (row holds their answers) that
// the unary walk skips: every backup that answered without the entry, and
// the primary, whose batch item priced the route. These members are
// skipped on every attempt of the walk, even after a stale-view reroute,
// where Query probes the new view's whole set again. When every member
// answered without the entry the walk probes no one and goes straight to
// the miss path.
func settled(set []string, row []setAnswer) (asked []string) {
	for j, a := range row {
		if j == 0 || a == notHeld {
			asked = append(asked, set[j])
		}
	}
	return asked
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
// round and returns the context error. Each round of probes is one engine
// round: every leg is sent before the first reply is awaited, and the
// round's remote legs share one deadline capped at CallTimeout. A probe
// that fails is treated as an empty peer — replication at the other
// holders keeps the answer correct.
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
	answer := func(rctx context.Context, calls []topk.Call) {
		legs := make([]fanLeg, len(calls))
		for i := range calls {
			legs[i] = fanLeg{addr: calls[i].Addr, req: transport.Request{Op: transport.OpTopK, TopK: &calls[i].Req}}
		}
		e.round(rctx, legs)
		for i := range legs {
			switch r := legs[i].resp; {
			case legs[i].err != nil:
				calls[i].Err = legs[i].err
			case r.Err != "" || r.TopK == nil:
				calls[i].Err = fmt.Errorf("node: topk probe: %s", r.Err)
			default:
				calls[i].Resp = *r.TopK
			}
		}
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

	res := topk.Run(ctx, cfg, answer, onRound)
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
	legs := legsTo(make([]fanLeg, 0, len(v.members)), v.members, transport.Request{Op: transport.OpStats})
	e.round(ctx, legs)
	var snaps []obs.Snapshot
	for i := range legs {
		l := &legs[i]
		if l.err != nil || l.resp.Err != "" || l.resp.Stats == nil {
			continue
		}
		s := *l.resp.Stats
		if s.Addr == "" {
			s.Addr = l.addr
		}
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		if err := ctx.Err(); err != nil {
			return obs.FleetReport{}, ctxErr(err)
		}
		return obs.FleetReport{}, ErrNoMembers
	}
	return obs.BuildFleetReport(snaps), nil
}
