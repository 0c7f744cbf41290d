package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// TCP is the socket transport: versioned binary frames (wire.go) over one
// TCP connection per dialed peer. Concurrent Calls from any number of
// goroutines are multiplexed on that connection and matched back to their
// callers by frame ID, so a slow request does not block an unrelated one.
// Each frame leaves in one Write, and each connection is read through one
// bufio.Reader that sits above the byte-counting wrapper, so the byte
// counters see every socket byte and a small frame costs one syscall each
// way.
type TCP struct {
	// Dialer customizes outbound connections (timeouts, local address).
	// The zero value is ready to use.
	Dialer net.Dialer

	// metrics, when set by Instrument, hooks the byte counters into every
	// connection this transport opens or accepts. Atomic because one TCP
	// value may be instrumented while another goroutine dials through it.
	metrics atomic.Pointer[Metrics]
}

// countConn wraps conn with the byte counters when the transport is
// instrumented; otherwise it returns conn untouched.
func (t *TCP) countConn(conn net.Conn) net.Conn {
	m := t.metrics.Load()
	if m == nil {
		return conn
	}
	return countingConn{Conn: conn, in: m.bytesIn, out: m.bytesOut}
}

// NewTCP returns the socket transport.
func NewTCP() *TCP { return &TCP{} }

// Serve binds addr ("" means "127.0.0.1:0") and serves connections until
// Close. Each accepted connection gets a reader goroutine; each request on
// it gets a handler goroutine, so handlers may themselves issue outbound
// Calls without deadlocking the connection.
func (t *TCP) Serve(addr string, h Handler) (Server, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveTCP(ln, h, t.countConn), nil
}

// serveTCP starts the accept loop on ln; wrap is applied to every accepted
// connection before any frame crosses it.
func serveTCP(ln net.Listener, h Handler, wrap func(net.Conn) net.Conn) *tcpServer {
	s := &tcpServer{ln: ln, handler: h, conns: make(map[net.Conn]bool), wrap: wrap}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// defaultDialTimeout bounds Dial when the Dialer has no timeout of its
// own: a SYN-blackholed peer must fail in seconds, not the OS connect
// timeout (minutes), because callers treat a dial failure as "peer did not
// answer" and fall back.
const defaultDialTimeout = 5 * time.Second

// Dial connects to addr. The connection is established eagerly so that a
// dead peer surfaces here rather than at the first Call.
func (t *TCP) Dial(addr string) (Client, error) {
	d := t.Dialer
	if d.Timeout == 0 {
		d.Timeout = defaultDialTimeout
	}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", classifyDialError(err), addr, err)
	}
	return newTCPClient(t.countConn(conn)), nil
}

// newTCPClient starts the read loop on an established connection.
func newTCPClient(conn net.Conn) *tcpClient {
	c := &tcpClient{conn: conn, pending: make(map[uint64]chan reply)}
	go c.readLoop()
	return c
}

// classifyDialError maps a net dial failure onto the transport's error
// vocabulary: timeouts (SYN blackhole — partition or dead host) become
// ErrDialTimeout, refusals (host up, port closed) ErrRefused, anything
// else plain ErrUnreachable. All three match ErrUnreachable in errors.Is.
func classifyDialError(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ErrDialTimeout
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return ErrRefused
	}
	return ErrUnreachable
}

// tcpServer is one listening endpoint.
type tcpServer struct {
	ln      net.Listener
	handler Handler
	wrap    func(net.Conn) net.Conn // byte-counting hook; identity when uninstrumented
	wg      sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func (s *tcpServer) Addr() string { return s.ln.Addr().String() }

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads frames off one connection and dispatches each request to
// its own goroutine. Responses are written under a per-connection mutex so
// concurrent handlers cannot interleave frames.
func (s *tcpServer) serveConn(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		raw.Close()
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	}()
	conn := s.wrap(raw) // byte counting; raw stays the map key
	br := bufio.NewReader(conn)
	var writeMu sync.Mutex
	for {
		f, err := readFrame(br)
		if err != nil {
			return // EOF, reset, garbage or another wire version: drop the connection
		}
		if f.Req == nil {
			continue // not a request; a confused peer, ignore
		}
		s.wg.Add(1)
		go func(f frame) {
			defer s.wg.Done()
			resp := s.handler(*f.Req)
			writeMu.Lock()
			err := writeFrame(conn, frame{ID: f.ID, Resp: &resp})
			writeMu.Unlock()
			if err != nil {
				conn.Close() // peer gone; reader loop will exit
			}
		}(f)
	}
}

// Close stops accepting, closes open connections, and waits for in-flight
// handlers to return.
func (s *tcpServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// tcpClient multiplexes requests over one connection.
type tcpClient struct {
	conn    net.Conn
	writeMu sync.Mutex // serializes writeFrame

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan reply
	err     error // terminal error, set once the read loop exits
}

// readLoop routes response frames to their waiting callers. On connection
// death every outstanding and future request fails with the terminal error.
func (c *tcpClient) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %w", ErrUnreachable, err))
			return
		}
		if f.Resp == nil {
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ok {
			ch <- reply{resp: *f.Resp, at: time.Now()} // buffered; never blocks
		}
	}
}

// fail marks the client dead and fails every outstanding request with the
// terminal error. A request leaves the pending table exactly once — routed
// a reply, failed here, or abandoned by its waiter — so each channel gets
// at most one send.
func (c *tcpClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	pending := c.pending
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- reply{err: err, at: time.Now()}
	}
}

// abandon forgets a request whose waiter gave up; a reply that still
// arrives for it is dropped by the read loop.
func (c *tcpClient) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Send registers the request and writes its frame on the calling
// goroutine; the reply channel is the only allocation beyond the frame's.
// A request that cannot be encoded (ErrFrame: over maxFrameSize, say) fails
// alone: nothing reached the socket, so the connection and the requests in
// flight on it are fine. Only a failed write kills the connection.
func (c *tcpClient) Send(ctx context.Context, req Request) Pending {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return failed(err)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan reply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := writeFrame(c.conn, frame{ID: id, Req: &req})
	c.writeMu.Unlock()
	if err != nil {
		c.abandon(id)
		if errors.Is(err, ErrFrame) {
			return failed(err)
		}
		err = fmt.Errorf("%w: %w", ErrUnreachable, err)
		c.fail(err)
		return failed(err)
	}
	return Pending{ctx: ctx, reply: ch, owner: c, id: id}
}

func (c *tcpClient) Call(ctx context.Context, req Request) (Response, error) {
	return c.Send(ctx, req).Wait()
}

// Close tears the connection down; outstanding requests fail.
func (c *tcpClient) Close() error {
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}
