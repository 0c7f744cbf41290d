package transport

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Memory is an in-process loopback transport: a registry of named endpoints
// whose handler serves each request on a short-lived goroutine (so context
// cancellation abandons a slow call exactly like the TCP client). It gives
// the cluster tests real RPC semantics — including
// unreachable peers when an endpoint is killed and deadline expiry
// mid-call — with none of the framing nondeterminism of sockets.
//
// Each Memory value is its own isolated network; two clusters built on two
// Memory instances cannot see each other.
type Memory struct {
	mu       sync.Mutex
	handlers map[string]Handler
	nextAddr int
}

// NewMemory returns an empty loopback network.
func NewMemory() *Memory {
	return &Memory{handlers: make(map[string]Handler)}
}

// Serve registers a handler under addr. An empty addr is assigned a fresh
// "mem-N" name. Registering an address twice fails — a live endpoint holds
// its name until closed.
func (m *Memory) Serve(addr string, h Handler) (Server, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		addr = fmt.Sprintf("mem-%d", m.nextAddr)
		m.nextAddr++
	}
	if _, taken := m.handlers[addr]; taken {
		return nil, fmt.Errorf("transport: address %q already serving", addr)
	}
	m.handlers[addr] = h
	return &memServer{net: m, addr: addr}, nil
}

// Dial returns a client for addr. Dialing is lazy: the endpoint is looked
// up at each Send, so a client dialed before its peer serves — or kept
// across a peer's kill/restart — behaves like a real reconnecting client.
func (m *Memory) Dial(addr string) (Client, error) {
	return &memClient{net: m, addr: addr}, nil
}

// lookup returns the live handler for addr.
func (m *Memory) lookup(addr string) (Handler, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.handlers[addr]
	return h, ok
}

// memServer is one registered endpoint.
type memServer struct {
	net    *Memory
	addr   string
	closed sync.Once
}

func (s *memServer) Addr() string { return s.addr }

// Close deregisters the endpoint; subsequent requests to it fail with
// ErrUnreachable, modeling a crashed peer.
func (s *memServer) Close() error {
	s.closed.Do(func() {
		s.net.mu.Lock()
		delete(s.net.handlers, s.addr)
		s.net.mu.Unlock()
	})
	return nil
}

// memClient calls one endpoint by name.
type memClient struct {
	net  *Memory
	addr string

	mu     sync.Mutex
	closed bool
}

// Send runs the handler on a goroutine of its own, so a caller can abandon
// a slow request mid-flight — the same deadline semantics as the TCP
// client. The handler keeps running to completion (as it would on a real
// network: the server cannot tell the caller gave up); its response is
// then discarded.
func (c *memClient) Send(ctx context.Context, req Request) Pending {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return failed(ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return failed(err)
	}
	h, ok := c.net.lookup(c.addr)
	if !ok {
		return failed(fmt.Errorf("%w: %s", ErrUnreachable, c.addr))
	}
	ch := make(chan reply, 1)
	go func() { ch <- reply{resp: h(req), at: time.Now()} }()
	return Pending{ctx: ctx, reply: ch}
}

func (c *memClient) Call(ctx context.Context, req Request) (Response, error) {
	return c.Send(ctx, req).Wait()
}

func (c *memClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
