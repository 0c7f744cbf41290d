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
// the host (refused), which reports what it made of it in act, and it or
// any other application error makes the reply unusable.
func (e *engine) accept(ctx context.Context, addr string, resp transport.Response) (ok bool, act staleAction) {
	if resp.Err == transport.StaleView {
		act = e.refused(ctx, addr, resp)
	}
	return resp.Err == "", act
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
	// legs of eq. 17; RefreshMsgs counts the reset-on-hit refresh legs the
	// search sends the backups of a key it finds (the primary's refresh
	// rides the probe, which IndexMsgs prices), and RepairMsgs the
	// read-repair re-inserts sent to set members that answered without
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
// index — one round asks the key's whole replica set, the responsible peer
// a probe that also resets the entry's TTL on a hit, each backup a refresh
// whose reply says whether it holds the entry (search) — then broadcast on
// a miss and insert the broadcast result with keyTtl.
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
	var res [1]QueryResult
	v, err := e.currentView()
	if err == nil {
		keys := [1]uint64{key}
		var miss []int
		if miss, err = e.search(ctx, v, keys[:], res[:], nil); len(miss) > 0 {
			err = e.missPath(ctx, keyspace.Key(key), &res[0])
		}
	}
	e.m.observeQuery(res[0], time.Since(start))
	e.m.fileMessages(res[0])
	if owned {
		e.deliver(tr, queryOutcome(res[0], err))
	}
	return res[0], err
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

// A setAnswer is what one member of a key's replica set told the search
// round about the key.
type setAnswer uint8

const (
	// unanswered: the leg failed or was refused, or the item was.
	unanswered setAnswer = iota
	notHeld
	held
)

// replBuf is the replica-set size a one-key search, and every fan-out of
// one key's set, fits in without a heap allocation; a larger Repl spills
// over.
const replBuf = 4

// oneKey is the slot table of a one-key search round, read-only: the
// members of one set are distinct, so member j is slot j, alone at its peer.
var oneKey = [replBuf][]int{{0}, {1}, {2}, {3}}

// search is the index search of §5.1 for keys under view v, results
// aligned. One round asks every key's whole replica set at once, one
// request per destination peer: the primary gets a query carrying keyTtl
// (the probe, with the reset-on-hit refresh riding it), each backup a
// refresh carrying the same TTL, whose reply says whether the backup holds
// the entry. From those answers each key takes one of three paths:
//
//   - a hit at the primary is done;
//   - when the primary misses or fails but a backup holds the key, one
//     follow-up round asks the first holder in set order for the value;
//   - a key no member holds goes to the miss path (broadcast and gated
//     insert): its backup legs were the failover probes, and no member is
//     asked twice.
//
// Set members that answered without the entry are read-repaired from the
// value the hit supplied, in one more round. The fan-out is synchronous —
// the read-repair guarantee is "the set is whole when Query returns" — so
// a SILENTLY partitioned member (no RST) can hold a round for up to
// callTimeout until suspicion convicts it; the legs of a round share that
// deadline, so it does not stack per member. When a stale-view refusal
// installed a fresher view and a key is still unresolved, the search runs
// again over that view, once.
//
// search appends to miss the indexes of the keys left to the miss path.
// One key's round runs in fixed buffers; a batch allocates its own.
func (e *engine) search(ctx context.Context, v *view, keys []uint64, results []QueryResult, miss []int) ([]int, error) {
	tr := obs.TraceFrom(ctx)
	var legBuf [replBuf]fanLeg
	for attempt := 0; ; attempt++ {
		// One routing pass places every key, the sets end to end in flat:
		// slot i*stride+j stands for member j of key i's set, the primary
		// at j = 0, the backups after it.
		stride := v.repl
		var flatBuf [replBuf]string
		var ansBuf [replBuf]setAnswer
		flat, answers := flatBuf[:0], ansBuf[:]
		if n := len(keys) * stride; n > replBuf {
			flat, answers = make([]string, 0, n), make([]setAnswer, n)
		}
		for i, key := range keys {
			flat = v.Replicas(keyspace.Key(key), flat...)
			r := &results[i]
			r.Answered, r.FromIndex, r.Value, r.AnsweredBy = false, false, 0, "" // a rerouted attempt asks again
			r.Responsible = flat[i*stride]
		}
		set := func(i int) []string { return flat[i*stride : (i+1)*stride] }
		row := func(i int) []setAnswer { return answers[i*stride : (i+1)*stride] }
		// One key's slots index its own set, which add never writes to, so
		// the set stays in flatBuf.
		one := destinations{addrs: flat, idxs: oneKey[:min(len(flat), len(oneKey))]}
		var many destinations
		dests := &one
		if len(keys) > 1 || len(flat) > len(oneKey) {
			for i := range keys {
				for j, addr := range set(i) {
					many.add(addr, i*stride+j)
				}
			}
			dests = &many
		}
		ttl := e.keyTtl()
		legs := e.batchLegs(legBuf[:0], v.hash, dests, func(s int) transport.BatchItem {
			if s%stride == 0 {
				return transport.BatchItem{Op: transport.OpQuery, Key: keys[s/stride], TTL: ttl}
			}
			return transport.BatchItem{Op: transport.OpRefresh, Key: keys[s/stride], TTL: ttl}
		})
		e.round(ctx, legs)
		rerouted, failed := false, false
		for j := range legs {
			l := &legs[j]
			ok, act := e.usable(ctx, l)
			rerouted = rerouted || act == staleReroute
			failed = failed || act == staleFail
			for n, s := range dests.idxs[j] {
				i, primary := s/stride, s%stride == 0
				switch {
				case primary && l.wire:
					// The route to the primary, priced once the probe went
					// out (a member that is the primary routes nowhere).
					results[i].IndexMsgs += v.hops(e.self, keyspace.Key(keys[i]))
				case l.wire:
					// Re-filed as a failover probe below when no member
					// holds the key.
					results[i].RefreshMsgs++
				}
				if !ok {
					continue
				}
				switch r := itemResult(l, n); {
				case r.Err != "":
				case primary && r.Found:
					answers[s] = held
					results[i].Answered, results[i].FromIndex = true, true
					results[i].Value, results[i].AnsweredBy = r.Value, l.addr
				case !primary && r.OK:
					answers[s] = held
				default:
					answers[s] = notHeld
				}
			}
		}

		// Keys a backup holds ask the first holder for the value; keys no
		// member holds are left to the miss path, their backup legs having
		// been failover probes after all.
		var fetch destinations
		for i := range keys {
			switch h := slices.Index(row(i), held); {
			case h == 0:
			case h > 0:
				fetch.add(set(i)[h], i)
			default:
				r := &results[i]
				r.IndexMsgs += r.RefreshMsgs
				r.failoverMsgs += r.RefreshMsgs
				r.RefreshMsgs = 0
			}
		}
		if tr != nil {
			for j := range legs {
				for _, s := range dests.idxs[j] {
					traceSlot(tr, &legs[j], answers[s], s%stride == 0, slices.Contains(row(s/stride), held))
				}
			}
		}
		e.fetch(ctx, v, keys, results, &fetch)
		// Read-repair the hits.
		var repairs destinations
		unresolved := 0
		for i := range keys {
			if !results[i].FromIndex {
				unresolved++
				continue
			}
			for j, a := range row(i) {
				if a == notHeld {
					repairs.add(set(i)[j], i)
				}
			}
		}
		if ctx.Err() == nil {
			e.repair(ctx, v, keys, results, &repairs, ttl)
		}
		if rerouted && attempt == 0 && unresolved > 0 && ctx.Err() == nil {
			var err error
			if v, err = e.currentView(); err != nil {
				return miss, err
			}
			continue
		}
		e.m.hits.Add(uint64(len(keys) - unresolved))
		// The check runs before the miss paths so a cancelled batch returns
		// without firing len(keys) broadcasts.
		switch {
		case ctx.Err() != nil:
			return miss, ctxErr(ctx.Err())
		case unresolved > 0 && failed && !rerouted:
			return miss, ErrStaleView
		}
		for i := range results {
			if !results[i].FromIndex {
				e.m.misses.Add(1)
				miss = append(miss, i)
			}
		}
		return miss, nil
	}
}

// fetch is a search's follow-up round: each key in d asks the first member
// of its set that holds it for the value, in one more failover probe. The
// holder's refresh item reset its TTL, so this query carries none.
func (e *engine) fetch(ctx context.Context, v *view, keys []uint64, results []QueryResult, d *destinations) {
	tr := obs.TraceFrom(ctx)
	var buf [replBuf]fanLeg
	legs := e.batchLegs(buf[:0], v.hash, d, func(i int) transport.BatchItem {
		return transport.BatchItem{Op: transport.OpQuery, Key: keys[i]}
	})
	e.round(ctx, legs)
	for j := range legs {
		l := &legs[j]
		ok, _ := e.usable(ctx, l)
		for n, i := range d.idxs[j] {
			r := &results[i]
			if l.wire {
				r.IndexMsgs++
				r.failoverMsgs++
			}
			outcome := "failed"
			if ok {
				if it := itemResult(l, n); it.Err == "" {
					outcome = hitMiss(it.Found)
					if it.Found {
						r.Answered, r.FromIndex, r.Value, r.AnsweredBy = true, true, it.Value, l.addr
					}
				}
			}
			if tr != nil && !l.start.IsZero() {
				tr.LegEnded("probe", l.addr, outcome, l.start, l.end)
			}
		}
	}
}

// repair is a search's read-repair round: each key in d is re-inserted,
// at the set members that answered without the entry, from the value the
// hit supplied, one round trip per destination. Members that did not
// answer at all are left alone: repairing a dead peer would burn a
// callTimeout per query on an address the membership layer is already
// evicting.
func (e *engine) repair(ctx context.Context, v *view, keys []uint64, results []QueryResult, d *destinations, ttl int) {
	tr := obs.TraceFrom(ctx)
	var buf [replBuf]fanLeg
	legs := e.batchLegs(buf[:0], v.hash, d, func(i int) transport.BatchItem {
		return transport.BatchItem{Op: transport.OpInsert, Key: keys[i], Value: results[i].Value, TTL: ttl}
	})
	for _, idxs := range d.idxs {
		e.m.readRepairs.Add(uint64(len(idxs)))
	}
	e.round(ctx, legs)
	for j := range legs {
		l := &legs[j]
		ok, _ := e.usable(ctx, l)
		for n, i := range d.idxs[j] {
			if l.wire {
				results[i].RepairMsgs++
			}
			if tr != nil && !l.start.IsZero() {
				outcome := "failed"
				if ok && itemResult(l, n).OK {
					outcome = "ok"
				}
				tr.LegEnded("read-repair", l.addr, outcome, l.start, l.end)
			}
		}
	}
}

// traceSlot records what one slot of a search round told a traced query,
// named once the round has classified the answers: the primary's reply is
// a "probe" leg, plus a "refresh" leg when it hit (the reset rode the
// probe); a backup's item is a "refresh" leg when some member holds the
// key and a "probe" leg when none does — it was the failover probe. A leg
// the round never issued records nothing.
func traceSlot(tr *obs.Trace, l *fanLeg, a setAnswer, primary, setHolds bool) {
	switch {
	case l.start.IsZero():
	case !primary && setHolds:
		tr.LegEnded("refresh", l.addr, [...]string{"failed", "missing", "ok"}[a], l.start, l.end)
	default:
		outcome := [...]string{"failed", "miss", "hit"}[a]
		if a == unanswered && l.err == nil && l.resp.Err != "" {
			outcome = "refused"
		}
		tr.LegEnded("probe", l.addr, outcome, l.start, l.end)
		if a == held {
			tr.LegEnded("refresh", l.addr, "ok", l.start, l.end)
		}
	}
}

// hitMiss is the probe-leg outcome label.
func hitMiss(found bool) string {
	if found {
		return "hit"
	}
	return "miss"
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
	var set [replBuf]string
	legs := legsTo(buf[:0], v.Replicas(k, set[:0]...), transport.Request{
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

// destinations groups item indexes into slots, one request each, slots in
// the order they are opened — the order their legs are issued and
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

// batchLegs appends one leg per slot to legs, item(i) the item of index i:
// the items of a slot go to its peer in a single OpBatch request carrying
// hash — that of the view they were routed by, or 0 for writes that span a
// view change (handoff). A slot of one item goes out as the plain unary
// request instead (OpQuery, OpRefresh or OpInsert), which the peer serves
// exactly as that item and which is a few bytes shorter on the wire.
func (e *engine) batchLegs(legs []fanLeg, hash uint64, d *destinations, item func(i int) transport.BatchItem) []fanLeg {
	legs = slices.Grow(legs, len(d.addrs))
	for j, addr := range d.addrs {
		req := transport.Request{Op: transport.OpBatch, ViewHash: hash}
		if idxs := d.idxs[j]; len(idxs) == 1 {
			it := item(idxs[0])
			req.Op, req.Key, req.Value, req.TTL = it.Op, it.Key, it.Value, it.TTL
		} else {
			req.Batch = make([]transport.BatchItem, len(idxs))
			for n, i := range idxs {
				req.Batch[n] = item(i)
			}
		}
		legs = append(legs, fanLeg{addr: addr, req: req})
	}
	return legs
}

// usable reports whether a collected batchLegs leg can be read item by item
// (itemResult): the call succeeded, the peer accepted it — a StaleView
// refusal goes to the host, and act is what the host made of it — and an
// OpBatch reply's results align with its items.
func (e *engine) usable(ctx context.Context, l *fanLeg) (ok bool, act staleAction) {
	if l.err != nil {
		return false, staleMiss
	}
	ok, act = e.accept(ctx, l.addr, l.resp)
	return ok && (l.req.Op != transport.OpBatch || len(l.resp.Batch) == len(l.req.Batch)), act
}

// itemResult is the outcome of item n of a leg usable accepted; a unary
// reply is its one item's.
func itemResult(l *fanLeg, n int) transport.BatchResult {
	if l.req.Op != transport.OpBatch {
		return transport.BatchResult{OK: l.resp.OK, Found: l.resp.Found, Value: l.resp.Value}
	}
	return l.resp.Batch[n]
}

// QueryMany resolves a batch of keys with the search Query runs for one:
// one round of one request per destination peer (per
// transport.MaxBatchItems items of it) asks every key's whole replica set,
// follow-up and repair legs are batched per destination too, and the keys
// left to the broadcast run their miss paths concurrently, per key.
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
	miss, err := e.search(ctx, v, keys, results, nil)
	if err != nil || len(miss) == 0 {
		return results, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(miss))
	for n, i := range miss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[n] = e.missPath(ctx, keyspace.Key(keys[i]), &results[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
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
