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
//   - Memory: an in-process loopback network. Calls are delivered
//     synchronously to the receiving handler, endpoints can be killed and
//     revived to model churn, and everything is deterministic — the
//     substrate of the multi-node cluster tests.
//
//   - TCP: versioned binary frames (wire.go; JSON only for the control
//     payloads, inside the same envelope) over real sockets, one
//     multiplexed connection per peer pair with request-ID correlation, so
//     concurrent calls from many goroutines share a connection without
//     head-of-line coupling between caller goroutines. One frame is one
//     Write; a peer speaking another wire version is refused with
//     ErrWireVersion.
//
// Failure model: a Call either returns the peer's Response or an error
// (unreachable peer, closed endpoint, timeout via context). Callers treat
// any error as "that peer did not answer" — the selection algorithm's
// fallback path (broadcast) does the rest, exactly as the paper's churn
// analysis assumes.
package transport

import (
	"context"
	"errors"
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
// for concurrent use; concurrent Calls are multiplexed.
type Client interface {
	// Call sends req and waits for the matching response. The context
	// bounds the wait; cancellation abandons the call (the response, if
	// it ever arrives, is discarded).
	Call(ctx context.Context, req Request) (Response, error)
	// Close releases the connection. Outstanding calls fail with
	// ErrClosed.
	Close() error
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
