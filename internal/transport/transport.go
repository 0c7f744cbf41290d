// Package transport is the wire layer of the live node subsystem: how one
// pdht node calls another. The simulator never needed it — overlay
// algorithms there walk the topology in-process and only count the messages
// they would have sent — but a real deployment needs connections, framing,
// request/response correlation and failure semantics. This package provides
// exactly that and nothing else: the node layer (internal/node) decides
// *what* to send, the transport decides *how*.
//
// Two implementations share the Transport interface:
//
//   - Memory: an in-process loopback network. Each request runs the
//     receiving handler on a short-lived goroutine of its own, so a caller
//     can give up on a slow handler exactly as on a socket; endpoints can
//     be killed and revived to model churn, and no bytes or frames are
//     involved — the substrate of the multi-node cluster tests.
//
//   - TCP: versioned binary frames (wire.go; JSON only for the control
//     payloads, inside the same envelope) over real sockets, one
//     multiplexed connection per peer pair with request-ID correlation, so
//     concurrent calls from many goroutines share a connection without
//     head-of-line coupling between caller goroutines. One frame is one
//     Write; a peer speaking another wire version is refused with
//     ErrWireVersion.
//
// A round trip has two halves. Client.Send issues a request and returns at
// once with its reply Pending — on TCP the frame has been written, on the
// caller's goroutine — and Pending.Wait collects the reply. A caller that
// fans one request out to several peers sends every leg first and then
// waits for each, so the legs overlap without a goroutine per leg.
// Client.Call is Send followed by Wait. Every Send must be waited exactly
// once: Wait is where a client lets go of the request, so one never waited
// stays counted in the in-flight gauge and, if no reply comes, in TCP's
// pending table.
//
// Failure model: a round trip either returns the peer's Response or an
// error (unreachable peer, closed endpoint, timeout via context). Callers
// treat any error as "that peer did not answer" — the selection
// algorithm's fallback path (broadcast) does the rest, exactly as the
// paper's churn analysis assumes.
package transport

import (
	"context"
	"errors"
	"time"
)

// Handler serves one request and returns the response. Handlers are invoked
// concurrently — one goroutine per in-flight request — and must be safe for
// concurrent use. Application-level failures travel in Response.Err;
// transport-level failures are the transport's own.
type Handler func(req Request) Response

// Server is one listening endpoint.
type Server interface {
	// Addr returns the address peers dial to reach this endpoint. For TCP
	// this is the bound address (useful when listening on ":0").
	Addr() string
	// Close stops the endpoint: the listener is torn down, open
	// connections are closed, and in-flight handlers are allowed to
	// finish. Close is idempotent.
	Close() error
}

// Client is a dialed connection to one remote endpoint. Clients are safe
// for concurrent use; concurrent requests are multiplexed.
type Client interface {
	// Send issues req and returns without waiting for the reply. The
	// context bounds the whole exchange: Wait gives up once it is done (the
	// response, if it ever arrives, is discarded). A request that could not
	// be issued — closed client, unreachable peer — fails at Wait.
	Send(ctx context.Context, req Request) Pending
	// Call is Send followed by Wait.
	Call(ctx context.Context, req Request) (Response, error)
	// Close releases the connection. Outstanding requests fail with
	// ErrClosed.
	Close() error
}

// Pending is a request Send has issued whose reply is not yet collected.
// It is a plain value — a fan-out keeps one per leg in an array — but it
// must be waited exactly once.
type Pending struct {
	ctx   context.Context
	reply chan reply // receives the one reply; buffered, so the sender never blocks
	// owner forgets the request when Wait gives up on it; nil when there
	// is nothing to forget.
	owner interface{ abandon(id uint64) }
	id    uint64
	err   error // Send could not issue the request

	// The instrumentation of an Instrument-wrapped client, settled at Wait.
	m     *Metrics
	slot  int
	start time.Time
}

// reply is what a request's reply channel carries. at is when the reply
// was delivered, so a latency sample ends there and not when a caller
// busy with earlier legs of a fan-out gets round to collecting it.
type reply struct {
	resp Response
	err  error
	at   time.Time
}

// failed is the Pending of a request Send could not issue.
func failed(err error) Pending { return Pending{err: err} }

// Go returns the Pending of a request that fn carries out on a goroutine of
// its own: for a client that cannot issue a request without blocking on it
// (a link that sleeps out its latency, a peer still to be dialed). Wait
// gives up once ctx is done; fn still runs to completion, and its reply is
// then discarded.
func Go(ctx context.Context, fn func() (Response, error)) Pending {
	ch := make(chan reply, 1)
	go func() {
		resp, err := fn()
		ch <- reply{resp, err, time.Now()}
	}()
	return Pending{ctx: ctx, reply: ch}
}

// Wait collects the reply: it blocks until the response arrives, the
// request fails, or the context given to Send is done. A reply that arrived
// before the context was done is returned even if Wait is called after it:
// a fan-out collects its legs one by one under a shared deadline, and a
// leg answered early must not be lost to the time spent on an earlier one.
func (p Pending) Wait() (Response, error) {
	r := p.wait()
	if p.m != nil {
		p.m.settle(p.slot, p.start, r.at, r.err)
	}
	return r.resp, r.err
}

func (p Pending) wait() reply {
	if p.err != nil {
		return reply{err: p.err}
	}
	select {
	case r := <-p.reply:
		return r
	case <-p.ctx.Done():
	}
	// Both cases may be ready, and select picks between them at random.
	select {
	case r := <-p.reply:
		return r
	default:
	}
	if p.owner != nil {
		p.owner.abandon(p.id)
	}
	return reply{err: p.ctx.Err()}
}

// Transport creates servers and clients over one medium.
type Transport interface {
	// Serve starts an endpoint at addr with the given handler. An empty
	// addr asks the transport to pick one (Memory invents a name, TCP
	// binds "127.0.0.1:0").
	Serve(addr string, h Handler) (Server, error)
	// Dial connects to the endpoint at addr. Dialing may be lazy: an
	// unreachable peer can surface at the first Call instead.
	Dial(addr string) (Client, error)
}

// Errors shared by the implementations.
var (
	// ErrClosed reports an operation on a closed client or server.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnreachable reports that the remote endpoint does not exist or
	// stopped existing.
	ErrUnreachable = errors.New("transport: peer unreachable")

	// ErrDialTimeout and ErrRefused are refinements of ErrUnreachable a
	// dial failure is classified into: a timeout means the peer (or the
	// path to it) blackholes SYNs — a partition or a dead host — while a
	// refusal means the host answered but nothing listens on the port — a
	// crashed or not-yet-started process. Both satisfy
	// errors.Is(err, ErrUnreachable), so existing callers keep treating
	// them as "that peer did not answer"; callers that care (retry
	// policies, operator diagnostics) can tell them apart with errors.Is
	// against the specific kind.
	ErrDialTimeout error = &unreachableKind{"dial timeout"}
	ErrRefused     error = &unreachableKind{"connection refused"}
)

// unreachableKind is a named refinement of ErrUnreachable.
type unreachableKind struct{ kind string }

func (e *unreachableKind) Error() string { return "transport: peer unreachable: " + e.kind }

// Is makes every refinement match ErrUnreachable under errors.Is.
func (e *unreachableKind) Is(target error) bool { return target == ErrUnreachable }
