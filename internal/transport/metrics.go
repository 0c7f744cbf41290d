package transport

import (
	"context"
	"net"
	"time"

	"pdht/internal/obs"
)

// opSlots covers the Op range plus slot 0 for anything out of range, so the
// per-op metric lookup is an array index, not a map access, on the hot path.
const opSlots = int(opEnd)

// opLabel is the label value of slot i ("other" for the out-of-range slot).
func opLabel(i int) string {
	if i == 0 {
		return "other"
	}
	return Op(i).String()
}

// opSlot maps an Op to its metric slot.
func opSlot(op Op) int {
	if op >= 1 && int(op) < opSlots {
		return int(op)
	}
	return 0
}

// Metrics holds the wire layer's registered instruments: outbound requests,
// failures and latency by operation, inbound requests served by operation,
// the in-flight gauge, and — on transports that move real bytes — bytes
// in/out. One Metrics is shared by every client and server the instrumented
// transport creates, so a node's whole wire activity lands in one registry.
type Metrics struct {
	requests [opSlots]*obs.Counter
	failures [opSlots]*obs.Counter
	served   [opSlots]*obs.Counter
	latency  [opSlots]*obs.Histogram
	inflight *obs.Gauge
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

// NewMetrics registers the transport instruments on reg under
// pdht_transport_*. Registration is idempotent, so two transports sharing a
// registry share the instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	for i := 0; i < opSlots; i++ {
		op := obs.L("op", opLabel(i))
		m.requests[i] = reg.Counter("pdht_transport_requests_total",
			"Outbound RPCs issued, by operation.", op)
		m.failures[i] = reg.Counter("pdht_transport_failures_total",
			"Outbound RPCs that returned a transport error, by operation.", op)
		m.served[i] = reg.Counter("pdht_transport_served_total",
			"Inbound RPCs served, by operation.", op)
		m.latency[i] = reg.Histogram("pdht_transport_request_seconds",
			"Outbound RPC round-trip latency, by operation.", nil, op)
	}
	m.inflight = reg.Gauge("pdht_transport_inflight",
		"Outbound RPCs currently awaiting a response.")
	m.bytesIn = reg.Counter("pdht_transport_bytes_in_total",
		"Bytes read off the wire (TCP only; the memory loopback moves none).")
	m.bytesOut = reg.Counter("pdht_transport_bytes_out_total",
		"Bytes written to the wire (TCP only; the memory loopback moves none).")
	return m
}

// Instrument wraps t so every request sent and every one served lands in m:
// per-op request/served/failure counters, per-op latency histograms, and the
// in-flight gauge — on memory and TCP alike. On *TCP the byte counters are
// additionally hooked into the connection layer; the memory loopback moves
// no bytes, so there they stay zero by construction.
func Instrument(t Transport, m *Metrics) Transport {
	if tcp, ok := t.(*TCP); ok {
		// First instrumentation wins the byte counters: two nodes sharing
		// one TCP value cannot split bytes per frame anyway (the wrapper
		// still gives each its own per-op counters).
		tcp.metrics.CompareAndSwap(nil, m)
	}
	return &instrumented{next: t, m: m}
}

type instrumented struct {
	next Transport
	m    *Metrics
}

func (t *instrumented) Serve(addr string, h Handler) (Server, error) {
	m := t.m
	return t.next.Serve(addr, func(req Request) Response {
		m.served[opSlot(req.Op)].Inc()
		return h(req)
	})
}

func (t *instrumented) Dial(addr string) (Client, error) {
	c, err := t.next.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &instrumentedClient{next: c, m: t.m}, nil
}

type instrumentedClient struct {
	next Client
	m    *Metrics
}

// Send counts the request as issued and in flight; its Wait settles the
// in-flight gauge, the latency and any failure. One instrumentation layer
// per client: the Pending carries a single set of metrics.
func (c *instrumentedClient) Send(ctx context.Context, req Request) Pending {
	s := opSlot(req.Op)
	c.m.requests[s].Inc()
	c.m.inflight.Inc()
	start := time.Now()
	p := c.next.Send(ctx, req)
	p.m, p.slot, p.start = c.m, s, start
	return p
}

func (c *instrumentedClient) Call(ctx context.Context, req Request) (Response, error) {
	return c.Send(ctx, req).Wait()
}

// settle records one collected request: no longer in flight, its round-trip
// latency — from Send to the reply's delivery at end, or to now for a
// request that got none — and whether it failed at the transport.
func (m *Metrics) settle(slot int, start, end time.Time, err error) {
	m.inflight.Dec()
	if end.IsZero() {
		end = time.Now()
	}
	m.latency[slot].Observe(end.Sub(start))
	if err != nil {
		m.failures[slot].Inc()
	}
}

func (c *instrumentedClient) Close() error { return c.next.Close() }

// countingConn wraps a net.Conn so every byte crossing it lands in the
// transport byte counters. Both the TCP client and server wrap their
// connections with it when the transport is instrumented.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(uint64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(uint64(n))
	}
	return n, err
}
