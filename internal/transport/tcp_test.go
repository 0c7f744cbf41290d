package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdht/internal/obs"
)

// TestTCPSlowRequestDoesNotBlockFastOne verifies the multiplexing claim:
// two calls share one connection, the first is slow, and the second must
// complete before the first does.
func TestTCPSlowRequestDoesNotBlockFastOne(t *testing.T) {
	tr := NewTCP()
	release := make(chan struct{})
	srv, err := tr.Serve("", func(req Request) Response {
		if req.Op == OpBroadcast { // the designated slow op
			<-release
		}
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), Request{Op: OpBroadcast})
		slowDone <- err
	}()
	// The fast call must finish while the slow one is still parked.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Call(ctx, Request{Op: OpQuery}); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestTCPOversizedRequestFailsOnlyItself checks that a request too large
// to encode fails alone: Send reports ErrFrame, not a dead peer, and the
// connection it would have gone out on keeps serving the request already in
// flight on it and the ones after it.
func TestTCPOversizedRequestFailsOnlyItself(t *testing.T) {
	tr := NewTCP()
	entered, release := make(chan struct{}), make(chan struct{})
	srv, err := tr.Serve("", func(req Request) Response {
		if req.Op == OpBroadcast { // the designated held op
			close(entered)
			<-release
		}
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before srv.Close, which waits for the handler
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	held := make(chan error, 1)
	go func() {
		_, err := cl.Call(ctx, Request{Op: OpBroadcast})
		held <- err
	}()
	<-entered

	// Every item carries a key and a value: 18 bytes each, well past 1 MiB.
	big := make([]BatchItem, maxFrameSize/itemMinSize+1)
	for i := range big {
		big[i] = BatchItem{Op: OpInsert, Key: uint64(i + 1), Value: 1}
	}
	_, err = cl.Call(ctx, Request{Op: OpBatch, Batch: big})
	if !errors.Is(err, ErrFrame) || errors.Is(err, ErrUnreachable) {
		t.Fatalf("oversized request: err = %v, want ErrFrame and not ErrUnreachable", err)
	}
	releaseOnce()
	if err := <-held; err != nil {
		t.Fatalf("the request in flight failed with the oversized one: %v", err)
	}
	if _, err := cl.Call(ctx, Request{Op: OpQuery}); err != nil {
		t.Fatalf("client unusable after an oversized request: %v", err)
	}
}

// TestTCPContextCancel checks a caller can abandon a call that the server
// will never answer, and the client remains usable afterwards.
func TestTCPContextCancel(t *testing.T) {
	tr := NewTCP()
	var hang atomic.Bool
	hang.Store(true)
	release := make(chan struct{})
	srv, err := tr.Serve("", func(req Request) Response {
		if hang.Load() {
			<-release
		}
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, Request{Op: OpQuery}); err == nil {
		t.Fatal("call outlived its context")
	}
	hang.Store(false)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := cl.Call(ctx2, Request{Op: OpQuery}); err != nil {
		t.Fatalf("client unusable after a canceled call: %v", err)
	}
}

// TestTCPGarbageConnection feeds the server raw garbage and checks it
// drops the connection without taking the endpoint down.
func TestTCPGarbageConnection(t *testing.T) {
	tr := NewTCP()
	srv, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Oversized length prefix followed by junk.
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 'j', 'u', 'n', 'k'})
	raw.Close()

	// The endpoint must still serve well-formed clients.
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Call(ctx, Request{Op: OpQuery, Key: 1}); err != nil {
		t.Fatalf("endpoint died after garbage connection: %v", err)
	}
}

// TestTCPDialUnreachable checks eager dialing reports a dead address.
func TestTCPDialUnreachable(t *testing.T) {
	tr := NewTCP()
	tr.Dialer.Timeout = 2 * time.Second
	// Bind-then-close yields a port that is very likely unbound.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := tr.Dial(addr); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// recordingConn keeps a copy of every Write it passes on.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// controlAndDataRequests is one request per frame family: a unary binary
// frame, a batch, and a JSON control frame.
func controlAndDataRequests() []Request {
	return []Request{
		{Op: OpQuery, From: "c", Key: 7, ViewHash: 9},
		{Op: OpBatch, ViewHash: 9, Batch: []BatchItem{{Op: OpQuery, Key: 1, TTL: 30}, {Op: OpInsert, Key: 2, Value: 3, TTL: 30}}},
		{Op: OpGossip, Gossip: &Gossip{Kind: GossipSync, From: "c", Full: true, Updates: []PeerState{{Addr: "c"}, {Addr: "d", Status: 1}}}},
	}
}

// mirror answers each request with a reply of the same family.
func mirror(req Request) Response {
	switch req.Op {
	case OpBatch:
		return Response{OK: true, Batch: make([]BatchResult, len(req.Batch))}
	case OpGossip:
		return Response{OK: true, Gossip: &Gossip{Kind: GossipAck, From: "s", Updates: req.Gossip.Updates}}
	}
	return Response{OK: true, Found: true, Value: req.Key}
}

// TestTCPOneWritePerFrame pins the syscall half of the codec: on the client
// and on the server every frame — binary, batch or JSON control — reaches
// the connection as exactly one Write holding exactly that frame.
func TestTCPOneWritePerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverConns := make(chan *recordingConn, 1)
	srv := serveTCP(ln, mirror, func(c net.Conn) net.Conn {
		rec := &recordingConn{Conn: c}
		serverConns <- rec
		return rec
	})
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	clientConn := &recordingConn{Conn: raw}
	cl := newTCPClient(clientConn)
	defer cl.Close()

	reqs := controlAndDataRequests()
	for _, req := range reqs {
		if _, err := cl.Call(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for side, rec := range map[string]*recordingConn{"client": clientConn, "server": <-serverConns} {
		writes := rec.recorded()
		if len(writes) != len(reqs) {
			t.Fatalf("%s: %d writes for %d frames", side, len(writes), len(reqs))
		}
		for i, w := range writes {
			if len(w) < 4 || int(binary.BigEndian.Uint32(w)) != len(w)-4 {
				t.Errorf("%s write %d: %d bytes are not one whole frame", side, i, len(w))
			}
		}
	}
}

// TestTCPByteCountersMatchTheSocket checks pdht_transport_bytes_{in,out}
// against an uninstrumented peer that counts what it really read and wrote:
// with the buffered reader above the counting wrapper, a frame's bytes are
// counted once, in full, by the time its call returns.
func TestTCPByteCountersMatchTheSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type sizes struct{ read, wrote int }
	seen := make(chan sizes)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, body); err != nil {
				return
			}
			f, err := decodeFrame(body)
			if err != nil {
				t.Error(err)
				return
			}
			resp := mirror(*f.Req)
			reply, err := appendFrame(nil, frame{ID: f.ID, Resp: &resp})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
			seen <- sizes{read: 4 + len(body), wrote: len(reply)}
		}
	}()

	m := NewMetrics(obs.NewRegistry())
	cl, err := Instrument(NewTCP(), m).Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, req := range controlAndDataRequests() {
		out0, in0 := m.bytesOut.Value(), m.bytesIn.Value()
		if _, err := cl.Call(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		got := <-seen
		if out := m.bytesOut.Value() - out0; out != uint64(got.read) {
			t.Errorf("%s: bytes_out grew by %d, the socket carried %d", req.Op, out, got.read)
		}
		if in := m.bytesIn.Value() - in0; in != uint64(got.wrote) {
			t.Errorf("%s: bytes_in grew by %d, the socket carried %d", req.Op, in, got.wrote)
		}
	}
}

// TestTCPSharedConnectionNeverAliases hammers one connection from many
// goroutines with frames full of strings and keeps every result until all
// traffic is over: a pooled encode buffer or the shared read buffer leaking
// into a returned Request or Response would show up as a string that
// changed after the fact (and, under -race, as a race).
func TestTCPSharedConnectionNeverAliases(t *testing.T) {
	tr := NewTCP()
	held, release := make(chan struct{}), make(chan struct{})
	srv, err := tr.Serve("", func(req Request) Response {
		if req.From == "held" {
			close(held)
			<-release
		}
		resp := Response{OK: true, Value: req.Key, Err: req.From}
		for _, it := range req.Batch {
			resp.Batch = append(resp.Batch, BatchResult{Found: true, Value: it.Key, Err: req.From})
		}
		return resp
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, calls = 16, 200
	type kept struct {
		from string
		key  uint64
		resp Response
	}
	results := make([][]kept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				from := fmt.Sprintf("worker-%d-call-%d", w, i)
				key := uint64(w)<<32 | uint64(i)
				req := Request{Op: OpBatch, From: from, Key: key, Batch: []BatchItem{{Op: OpQuery, Key: key}, {Op: OpQuery, Key: key + 1}}}
				if i%2 == 0 {
					req = Request{Op: OpQuery, From: from, Key: key}
				}
				resp, err := cl.Call(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], kept{from, key, resp})
			}
		}(w)
	}
	wg.Wait()
	for _, rs := range results {
		for _, k := range rs {
			if k.resp.Err != k.from || k.resp.Value != k.key {
				t.Fatalf("call %s got %+v", k.from, k.resp)
			}
			for j, it := range k.resp.Batch {
				if it.Err != k.from || it.Value != k.key+uint64(j) {
					t.Fatalf("call %s batch item %d got %+v", k.from, j, it)
				}
			}
		}
	}

	// Replies that cross: the first call's handler holds its reply until
	// the second call's reply has reached its caller, so on the one
	// connection the second reply overtakes the first. The read loop must
	// still route each reply to its own waiter.
	first := make(chan Response, 1)
	go func() {
		resp, err := cl.Call(context.Background(), Request{Op: OpQuery, From: "held", Key: 1})
		if err != nil {
			t.Error(err)
		}
		first <- resp
	}()
	<-held
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cl.Call(ctx, Request{Op: OpQuery, From: "overtaking", Key: 2})
	close(release)
	if err != nil || resp.Err != "overtaking" || resp.Value != 2 {
		t.Fatalf("overtaking call got %+v, %v", resp, err)
	}
	if resp := <-first; resp.Err != "held" || resp.Value != 1 {
		t.Fatalf("held call got %+v", resp)
	}
}

// TestTCPWireVersionMismatch plays a peer of another wire version on each
// side. The server drops the connection without taking the endpoint down;
// the client fails the call — and every later one — with an error that
// names ErrWireVersion, so a mixed fleet reads as what it is.
func TestTCPWireVersionMismatch(t *testing.T) {
	future, err := appendFrame(nil, frame{ID: 1, Req: &Request{Op: OpQuery, Key: 1}})
	if err != nil {
		t.Fatal(err)
	}
	future[4] = wireVersion + 1
	reply := append([]byte(nil), future...)
	reply[5] = kindResponse

	tr := NewTCP()
	srv, err := tr.Serve("", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(future); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server answered a frame of another version: %d bytes, err %v; want the connection closed", n, err)
	}
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call(context.Background(), Request{Op: OpQuery, Key: 1}); err != nil {
		t.Fatalf("endpoint died after a version mismatch: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.ReadFull(conn, make([]byte, 4+envelopeSize)) // wait for the request
		conn.Write(reply)
		io.Copy(io.Discard, conn) // hold the socket open until the client hangs up
	}()
	old, err := tr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	for i := 0; i < 2; i++ {
		_, err := old.Call(context.Background(), Request{Op: OpQuery, Key: 1})
		if !errors.Is(err, ErrWireVersion) || !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d to a peer of another version: err = %v, want ErrWireVersion (and ErrUnreachable)", i, err)
		}
	}
}

// brokenConn fails every Write with cause; reads block until Close.
type brokenConn struct {
	net.Conn
	cause error
}

func (c brokenConn) Write([]byte) (int, error) { return 0, c.cause }

// TestTCPWriteFailureNamesItsCause checks the caller whose write broke the
// connection learns why, exactly as every later caller does.
func TestTCPWriteFailureNamesItsCause(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	cause := errors.New("socket closed under the call")
	cl := newTCPClient(brokenConn{Conn: near, cause: cause})
	defer cl.Close()
	for i := 0; i < 2; i++ {
		_, err := cl.Call(context.Background(), Request{Op: OpQuery, Key: 1})
		if !errors.Is(err, ErrUnreachable) || !errors.Is(err, cause) || !strings.Contains(err.Error(), cause.Error()) {
			t.Errorf("call %d: err = %v, want ErrUnreachable naming %q", i, err, cause)
		}
	}
}

// BenchmarkTCPRoundTrip is the transport layer benchmark: one closed-loop
// caller on one loopback connection, unary and 32-item batch.
func BenchmarkTCPRoundTrip(b *testing.B) {
	tr := NewTCP()
	srv, err := tr.Serve("", mirror)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := tr.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for name, req := range map[string]Request{
		"unary":   {Op: OpQuery, Key: 0x9e3779b97f4a7c15, ViewHash: 9},
		"batch32": batch32Request(),
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for b.Loop() {
				if _, err := cl.Call(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
