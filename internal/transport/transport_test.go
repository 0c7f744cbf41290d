package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// echoHandler answers every request with a response derived from it, so a
// test can verify the response reached the right caller.
func echoHandler(req Request) Response {
	return Response{OK: true, Found: req.Op == OpQuery, Value: req.Key + 1}
}

// transports enumerates the implementations under test. Every behavior in
// this file must hold for both.
func transports(t *testing.T) map[string]Transport {
	t.Helper()
	return map[string]Transport{
		"memory": NewMemory(),
		"tcp":    NewTCP(),
	}
}

func TestCallRoundtrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			srv, err := tr.Serve("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			resp, err := cl.Call(context.Background(), Request{Op: OpQuery, Key: 41})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.OK || !resp.Found || resp.Value != 42 {
				t.Fatalf("resp = %+v, want OK found value 42", resp)
			}
		})
	}
}

// TestConcurrentCallsCorrelate drives many goroutines through one client
// and checks every caller gets its own answer — the request/response
// correlation the TCP mux exists for. Run with -race in CI.
func TestConcurrentCallsCorrelate(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			srv, err := tr.Serve("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			const callers, callsEach = 16, 50
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < callsEach; i++ {
						key := uint64(g*1000 + i)
						resp, err := cl.Call(context.Background(), Request{Op: OpQuery, Key: key})
						if err != nil {
							errs <- err
							return
						}
						if resp.Value != key+1 {
							errs <- fmt.Errorf("caller %d: got value %d for key %d", g, resp.Value, key)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestUnreachablePeer(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			srv, err := tr.Serve("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()
			cl, err := tr.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Call(context.Background(), Request{Op: OpQuery}); err != nil {
				t.Fatalf("call before close: %v", err)
			}
			srv.Close()
			// The established client must observe the peer's death.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if _, err := cl.Call(ctx, Request{Op: OpQuery}); err == nil {
				t.Fatal("call to closed endpoint succeeded")
			}
			// A fresh dial+call must fail too (memory dials lazily, so
			// the error may surface at Call instead of Dial).
			if cl2, err := tr.Dial(addr); err == nil {
				ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel2()
				if _, err := cl2.Call(ctx2, Request{Op: OpQuery}); err == nil {
					t.Fatal("dial+call to closed endpoint succeeded")
				}
				cl2.Close()
			}
		})
	}
}

func TestClosedClient(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			srv, err := tr.Serve("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			cl.Close()
			if _, err := cl.Call(context.Background(), Request{Op: OpQuery}); err == nil {
				t.Fatal("call on closed client succeeded")
			}
		})
	}
}

func TestServeRejectsNilHandler(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := tr.Serve("", nil); err == nil {
				t.Fatal("Serve(nil handler) succeeded")
			}
		})
	}
}

func TestMemoryAddressCollision(t *testing.T) {
	m := NewMemory()
	srv, err := m.Serve("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Serve("a", echoHandler); err == nil {
		t.Fatal("second Serve on same address succeeded")
	}
	// After closing, the name is free again — churn restart semantics.
	srv.Close()
	if _, err := m.Serve("a", echoHandler); err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

func TestMemoryIsolation(t *testing.T) {
	m1, m2 := NewMemory(), NewMemory()
	srv, err := m1.Serve("shared", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := m2.Dial("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call(context.Background(), Request{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-network call: err = %v, want ErrUnreachable", err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{ID: 7, Req: &Request{Op: OpInsert, From: "n1", Key: 9, Value: 10, TTL: 30}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Resp != nil || out.Req == nil || !reflect.DeepEqual(*out.Req, *in.Req) {
		t.Fatalf("roundtrip: got %+v", out)
	}
}

// TestBatchRoundtrip sends an OpBatch request through both transports and
// checks the per-item results survive the wire — including a per-item
// failure that must not disturb its neighbors (the partial-failure
// contract of the batched API).
func TestBatchRoundtrip(t *testing.T) {
	// The handler answers each item positionally: even keys are found,
	// odd keys miss, and a zero-TTL insert is refused per item.
	batchHandler := func(req Request) Response {
		if req.Op != OpBatch {
			return Response{Err: "want batch"}
		}
		results := make([]BatchResult, len(req.Batch))
		for i, it := range req.Batch {
			switch {
			case it.Op == OpInsert && it.TTL < 1:
				results[i] = BatchResult{Err: "insert without ttl"}
			case it.Op == OpQuery && it.Key%2 == 0:
				results[i] = BatchResult{OK: true, Found: true, Value: it.Key * 10}
			default:
				results[i] = BatchResult{OK: true}
			}
		}
		return Response{OK: true, Batch: results}
	}
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			srv, err := tr.Serve("", batchHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			resp, err := cl.Call(context.Background(), Request{Op: OpBatch, Batch: []BatchItem{
				{Op: OpQuery, Key: 2, TTL: 30},
				{Op: OpQuery, Key: 3},
				{Op: OpInsert, Key: 4, Value: 9}, // malformed: no TTL
				{Op: OpQuery, Key: 6},
			}})
			if err != nil {
				t.Fatal(err)
			}
			want := []BatchResult{
				{OK: true, Found: true, Value: 20},
				{OK: true},
				{Err: "insert without ttl"},
				{OK: true, Found: true, Value: 60},
			}
			if !resp.OK || !reflect.DeepEqual(resp.Batch, want) {
				t.Fatalf("batch results = %+v, want %+v", resp.Batch, want)
			}
		})
	}
}

// TestBatchCancellationMidCall cancels the context while an OpBatch call
// is in flight at a slow peer: the call must return promptly with the
// context's error on both transports instead of waiting the handler out.
func TestBatchCancellationMidCall(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			slow := func(req Request) Response {
				<-release
				return Response{OK: true, Batch: make([]BatchResult, len(req.Batch))}
			}
			srv, err := tr.Serve("", slow)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			defer close(release) // let the in-flight handler finish
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = cl.Call(ctx, Request{Op: OpBatch, Batch: []BatchItem{{Op: OpQuery, Key: 1}}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
			}
			if waited := time.Since(start); waited > time.Second {
				t.Fatalf("cancelled call returned after %v, want promptly", waited)
			}
		})
	}
}

func TestFrameLengthGuard(t *testing.T) {
	// A length prefix claiming 512 MiB must be rejected before any
	// allocation, not trusted.
	hostile := []byte{0x20, 0x00, 0x00, 0x00}
	if _, err := decode(hostile); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame length: err = %v, want ErrFrame", err)
	}
}

// TestFanoutLegDeadlinesAreIndependent models a write fan-out with a
// goroutine per leg (internal/replica.Fanout): one caller fires concurrent
// legs at several peers, each leg with its own context derived from the
// request's. A leg
// whose peer stalls must time out on ITS deadline without delaying or
// poisoning the legs to healthy peers — otherwise one dead replica would
// cost every write the full timeout.
func TestFanoutLegDeadlinesAreIndependent(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			stuck, err := tr.Serve("", func(req Request) Response {
				<-release // stalls until the test ends
				return Response{OK: true}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer stuck.Close()
			defer close(release)
			healthy, err := tr.Serve("", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer healthy.Close()

			ctx := context.Background()
			type leg struct {
				resp Response
				err  error
				took time.Duration
			}
			results := make(map[string]leg)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, addr := range []string{stuck.Addr(), healthy.Addr(), healthy.Addr()} {
				wg.Add(1)
				go func(addr string) {
					defer wg.Done()
					legCtx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
					defer cancel()
					cl, err := tr.Dial(addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer cl.Close()
					start := time.Now()
					resp, err := cl.Call(legCtx, Request{Op: OpInsert, Key: 7, Value: 8, TTL: 9})
					mu.Lock()
					if _, dup := results[addr]; !dup || err == nil {
						results[addr] = leg{resp, err, time.Since(start)}
					}
					mu.Unlock()
				}(addr)
			}
			wg.Wait()

			if l := results[healthy.Addr()]; l.err != nil || !l.resp.OK {
				t.Fatalf("healthy leg = %+v / %v, want a clean response", l.resp, l.err)
			}
			l := results[stuck.Addr()]
			if l.err == nil {
				t.Fatalf("stuck leg returned %+v, want a deadline error", l.resp)
			}
			if !errors.Is(l.err, context.DeadlineExceeded) {
				t.Fatalf("stuck leg failed with %v, want context.DeadlineExceeded", l.err)
			}
			if l.took > 2*time.Second {
				t.Fatalf("stuck leg held its caller %v, want release at the 150ms leg deadline", l.took)
			}
		})
	}
}
