package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Leg is one step of a traced query: an index probe at a replica, the
// broadcast fan-out, the insert-gate verdict, a write or read-repair leg, a
// stale-view re-sync. Start is the offset from the query's begin, so a
// timeline renders without absolute clocks.
type Leg struct {
	// Name identifies the step: "probe", "broadcast", "insert-gate",
	// "insert", "refresh", "read-repair", "stale-view", "resync".
	Name string `json:"name"`
	// Target is the peer the leg talked to, empty for local decisions.
	Target string `json:"target,omitempty"`
	// Outcome is the leg's result: "hit", "miss", "answered", "gated",
	// "allowed", "ok", "failed", ...
	Outcome string `json:"outcome"`
	// Start is the offset from the trace begin; Duration the leg's own
	// elapsed time (zero for instantaneous decisions).
	Start    time.Duration `json:"start"`
	Duration time.Duration `json:"duration"`
	// Peer is set when the leg was recorded *server-side* by a remote
	// node and shipped back in the RPC response: the recording peer's
	// address. Empty for legs the querying client recorded itself. A
	// failover trace distinguishes "the client probed the backup" (Target
	// set, Peer empty) from "the backup looked the key up in its own
	// index" (Peer set) through this field.
	Peer string `json:"peer,omitempty"`
}

// Span is one server-side step of a remote operation, recorded by the
// serving node and returned in the RPC response when the request carried a
// TraceID. Start is the offset from the moment the server received the
// request, so the client can splice the span into its own timeline using
// only the call's start time — no cross-host clock comparison.
type Span struct {
	// Name identifies the step: "index-lookup", "insert", "refresh",
	// "content-lookup", "batch", "store-append".
	Name string `json:"name"`
	// Outcome is the step's result: "hit", "miss", "stored", "refused",
	// "ok", "missing", "stale-view", ...
	Outcome string `json:"outcome"`
	// Start is the offset from request receipt; Duration the step's own
	// elapsed time (zero for instantaneous sub-steps).
	Start    time.Duration `json:"start,omitempty"`
	Duration time.Duration `json:"dur,omitempty"`
}

// QueryTrace is one finished query's causality record: the key, the
// wall-clock span, the end-to-end outcome, and every leg in completion
// order. It is immutable once delivered — safe to retain, dump as JSON, or
// render with Timeline.
type QueryTrace struct {
	Key      uint64        `json:"key"`
	Begin    time.Time     `json:"begin"`
	Duration time.Duration `json:"duration"`
	// Outcome summarizes the query: "hit", "broadcast", "unanswered",
	// "gated", "error".
	Outcome string `json:"outcome"`
	Legs    []Leg  `json:"legs"`
}

// Timeline renders the trace as an indented per-leg timeline, one line per
// leg — what examples and the slow-query dump print for humans.
func (t QueryTrace) Timeline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query key=%d outcome=%s total=%s\n", t.Key, t.Outcome, t.Duration)
	for _, l := range t.Legs {
		b.WriteString("  ")
		if l.Peer != "" {
			// Server-side leg: indent one step under the client leg that
			// carried it and name the peer that recorded it.
			fmt.Fprintf(&b, "  @%s ", l.Peer)
		}
		b.WriteString(l.Name)
		if l.Target != "" {
			fmt.Fprintf(&b, " %s", l.Target)
		}
		fmt.Fprintf(&b, " → %s", l.Outcome)
		if l.Duration > 0 {
			fmt.Fprintf(&b, " (+%s, %s)", l.Start, l.Duration)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Trace is the live recorder a query carries while in flight. Legs may be
// recorded concurrently (write fan-outs run on parallel goroutines); Finish
// seals the trace into an immutable QueryTrace. The zero number of
// synchronization points on the query hot path is preserved by construction:
// a node only allocates a Trace when a hook or the slow-query log asks for
// one.
type Trace struct {
	key   uint64
	begin time.Time

	// wireID, when nonzero, is the sampled cluster-wide identifier the
	// query's RPCs carry in Request.TraceID: instrumented servers see it,
	// record server-side spans, and ship them back for stitching. Written
	// once before the first RPC leg, read concurrently afterwards.
	wireID atomic.Uint64

	mu   sync.Mutex
	legs []Leg
}

// NewTrace starts recording a query against key.
func NewTrace(key uint64) *Trace {
	return &Trace{key: key, begin: time.Now()}
}

// Leg records a step that started at start and just ended. Safe for
// concurrent use.
func (t *Trace) Leg(name, target, outcome string, start time.Time) {
	t.LegEnded(name, target, outcome, start, time.Now())
}

// LegEnded records a step that ran from start to end: for a step whose
// outcome is recorded some time after it ended. Safe for concurrent use.
func (t *Trace) LegEnded(name, target, outcome string, start, end time.Time) {
	l := Leg{
		Name: name, Target: target, Outcome: outcome,
		Start:    start.Sub(t.begin),
		Duration: end.Sub(start),
	}
	t.mu.Lock()
	t.legs = append(t.legs, l)
	t.mu.Unlock()
}

// Mark records an instantaneous decision (no duration), such as the
// insert-gate verdict.
func (t *Trace) Mark(name, target, outcome string) {
	l := Leg{Name: name, Target: target, Outcome: outcome, Start: time.Since(t.begin)}
	t.mu.Lock()
	t.legs = append(t.legs, l)
	t.mu.Unlock()
}

// SetWireID marks the trace for cluster-wide propagation: every RPC the
// query issues from now on carries id in Request.TraceID, and server-side
// spans returned in responses are stitched in via AddSpans. A zero id is
// ignored — zero on the wire means "not traced".
func (t *Trace) SetWireID(id uint64) {
	if id != 0 {
		t.wireID.Store(id)
	}
}

// WireID returns the propagation identifier, zero when the trace is local
// only (unsampled).
func (t *Trace) WireID() uint64 { return t.wireID.Load() }

// AddSpans splices server-side spans recorded by peer into the trace.
// callStart is the client-side time the RPC carrying them was issued; each
// span's receipt-relative offset is rebased onto it, so the stitched legs
// sort correctly against client-side legs without cross-host clocks (the
// network half of the RTT is attributed to the call, not the span). Safe
// for concurrent use.
func (t *Trace) AddSpans(peer string, callStart time.Time, spans []Span) {
	if len(spans) == 0 {
		return
	}
	base := callStart.Sub(t.begin)
	t.mu.Lock()
	for _, s := range spans {
		t.legs = append(t.legs, Leg{
			Name: s.Name, Outcome: s.Outcome, Peer: peer,
			Start:    base + s.Start,
			Duration: s.Duration,
		})
	}
	t.mu.Unlock()
}

// Finish seals the trace with the end-to-end outcome and returns the
// immutable record. The Trace must not be used afterwards.
func (t *Trace) Finish(outcome string) QueryTrace {
	t.mu.Lock()
	legs := t.legs
	t.legs = nil
	t.mu.Unlock()
	return QueryTrace{
		Key: t.key, Begin: t.begin,
		Duration: time.Since(t.begin),
		Outcome:  outcome, Legs: legs,
	}
}

// traceKey is the context key a Trace travels under.
type traceKey struct{}

// WithTrace attaches a live trace to ctx, so every layer a query passes
// through — replica fan-outs, stale-view recovery, transport retries — can
// record legs without threading a parameter.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, nil when the query is not
// being traced. The nil check is the hot path's only tracing cost.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
