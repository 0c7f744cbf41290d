package node

import (
	"context"
	"errors"
	"sync"

	"pdht/internal/transport"
)

// pool is an outbound connection pool over one transport: one multiplexed
// client per peer, dialed on first use, re-dialed after transport-level
// failures. Node and RemoteClient share it — the reconnect-under-churn
// semantics of the request path live here, once.
type pool struct {
	tr transport.Transport

	mu      sync.Mutex
	clients map[string]transport.Client
	closed  bool
}

func newPool(tr transport.Transport) *pool {
	return &pool{tr: tr, clients: make(map[string]transport.Client)}
}

// get returns a pooled connection to addr, dialing on first use. The dial
// happens outside the pool lock — a slow or blackholed peer must not stall
// outbound calls to everyone else — so two goroutines can race to dial the
// same peer; the loser's connection is closed and the winner's kept.
func (p *pool) get(addr string) (transport.Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c, ok := p.clients[addr]; ok {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	c, err := p.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return nil, transport.ErrClosed
	}
	if existing, ok := p.clients[addr]; ok {
		c.Close()
		return existing, nil
	}
	p.clients[addr] = c
	return c, nil
}

// drop discards a connection that returned an error, so the next call
// re-dials — the reconnect path under churn.
func (p *pool) drop(addr string, c transport.Client) {
	p.mu.Lock()
	if p.clients[addr] == c {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	c.Close()
}

// close shuts the pool down for good: existing connections close and get
// refuses to dial new ones.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	clients := p.clients
	p.clients = make(map[string]transport.Client)
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// outbound is one request the pool has issued and not yet collected.
type outbound struct {
	pending transport.Pending
	addr    string
	// c is the pooled client the request went out on, dropped by wait on a
	// transport-level failure; nil when the request dialed its own way
	// (send's first contact), which settles the connection itself.
	c   transport.Client
	err error // the pool could not issue the request
}

// send issues one request to addr under ctx. On a pooled connection it goes
// out from the calling goroutine; the first request to a peer dials on a
// goroutine of its own instead, so a peer that blackholes SYNs holds up
// only its own leg of a fan-out, and only until ctx is done.
func (p *pool) send(ctx context.Context, addr string, req transport.Request) outbound {
	p.mu.Lock()
	closed, c := p.closed, p.clients[addr]
	p.mu.Unlock()
	switch {
	case closed:
		return outbound{err: transport.ErrClosed}
	case c == nil:
		return outbound{pending: transport.Go(ctx, func() (transport.Response, error) {
			return p.call(ctx, addr, req)
		})}
	}
	return outbound{pending: c.Send(ctx, req), addr: addr, c: c}
}

// wait collects what send issued. A timeout means that one request
// expired, and an encode error (transport.ErrFrame) that one request could
// not be written, not that the shared multiplexed connection is broken —
// tearing it down would fail every concurrent in-flight request to that
// peer — so the pooled client is only dropped on transport-level errors.
func (p *pool) wait(o outbound) (transport.Response, error) {
	if o.err != nil {
		return transport.Response{}, o.err
	}
	resp, err := o.pending.Wait()
	if err != nil {
		if o.c != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) &&
			!errors.Is(err, transport.ErrFrame) {
			p.drop(o.addr, o.c)
		}
		return transport.Response{}, err
	}
	return resp, nil
}

// call performs one RPC to addr under ctx, dialing on the calling
// goroutine if need be.
func (p *pool) call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	c, err := p.get(addr)
	if err != nil {
		return transport.Response{}, err
	}
	return p.wait(outbound{pending: c.Send(ctx, req), addr: addr, c: c})
}
