package transport_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdht/internal/chaos"
	"pdht/internal/obs"
	"pdht/internal/transport"
)

// sendTransports are the clients Send must not block on: both transports,
// and the memory transport behind a fault-free chaos link (whose Send takes
// its fault draws on the caller and delivers on a goroutine).
func sendTransports() map[string]transport.Transport {
	return map[string]transport.Transport{
		"tcp":    transport.NewTCP(),
		"memory": transport.NewMemory(),
		"chaos":  chaos.New(transport.NewMemory(), chaos.Config{Seed: 1}).Node("caller"),
	}
}

// TestSendDoesNotWaitForReply pins the split round trip a fan-out is built
// on: one goroutine can have many requests in flight at once, because Send
// returns once the request is issued and only Wait blocks on the reply. The
// handler holds every request until all n have arrived, and the caller
// waits for them in reverse order, so a Send that waited for its own reply
// would deadlock. It also pins that a request that could not go out fails
// at Wait, and that a fan-out cancelled mid-flight leaves nothing behind:
// the in-flight gauge back at 0 and the TCP client's pending table empty.
func TestSendDoesNotWaitForReply(t *testing.T) {
	const n = 8
	for name, raw := range sendTransports() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := transport.Instrument(raw, transport.NewMetrics(reg))
			inflight := func() float64 {
				v, _ := reg.Snapshot().Value("pdht_transport_inflight")
				return v
			}
			var arrived atomic.Int32
			all, release := make(chan struct{}), make(chan struct{})
			var allOnce, releaseOnce sync.Once
			answerAll := func() { allOnce.Do(func() { close(all) }) }
			unhold := func() { releaseOnce.Do(func() { close(release) }) }
			srv, err := tr.Serve("", func(req transport.Request) transport.Response {
				if req.Op == transport.OpRefresh {
					<-release // held until the test ends: the cancelled fan-out's legs
					return transport.Response{OK: true}
				}
				if arrived.Add(1) == n {
					answerAll()
				}
				<-all
				return transport.Response{Found: true, Value: req.Key * 10}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			defer unhold()
			defer answerAll()
			cl, err := tr.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			done := make(chan error, 1)
			go func() {
				var legs [n]transport.Pending
				for i := range legs {
					legs[i] = cl.Send(ctx, transport.Request{Op: transport.OpQuery, Key: uint64(i)})
				}
				for i := n - 1; i >= 0; i-- {
					resp, err := legs[i].Wait()
					if err != nil {
						done <- err
						return
					}
					if resp.Value != uint64(i)*10 {
						done <- errors.New("a reply reached the wrong request")
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d requests reached the handler: Send blocks on its reply", arrived.Load(), n)
			}

			// A fan-out cancelled with every leg in flight: each Wait returns
			// the cancellation and forgets its request.
			fctx, fcancel := context.WithCancel(ctx)
			var legs [n]transport.Pending
			for i := range legs {
				legs[i] = cl.Send(fctx, transport.Request{Op: transport.OpRefresh, Key: uint64(i)})
			}
			fcancel()
			for i := range legs {
				if _, err := legs[i].Wait(); !errors.Is(err, context.Canceled) {
					t.Fatalf("leg %d of the cancelled fan-out: err = %v, want context.Canceled", i, err)
				}
			}
			if got := inflight(); got != 0 {
				t.Errorf("pdht_transport_inflight = %v after every Send was waited, want 0", got)
			}
			if got := transport.PendingRequests(cl); got > 0 {
				t.Errorf("TCP pending table holds %d requests after every Send was waited, want 0", got)
			}

			// A request that cannot go out fails at Wait, not at Send: first
			// to a peer that has gone away, then on a closed client.
			unhold() // a TCP server's Close waits for its handlers
			srv.Close()
			var err2 error
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
				// TCP learns of the closed peer when its read loop sees the
				// EOF; a request written before then fails at Wait all the
				// same.
				if _, err2 = cl.Send(ctx, transport.Request{Op: transport.OpQuery}).Wait(); err2 != nil {
					break
				}
			}
			if !errors.Is(err2, transport.ErrUnreachable) {
				t.Errorf("Send to a closed peer: Wait err = %v, want ErrUnreachable", err2)
			}
			cl.Close()
			if _, err := cl.Send(ctx, transport.Request{Op: transport.OpQuery}).Wait(); err == nil {
				t.Error("Send on a closed client: Wait returned no error")
			}
			if got := inflight(); got != 0 {
				t.Errorf("pdht_transport_inflight = %v after the failed requests were waited, want 0", got)
			}
		})
	}
}

// TestWaitKeepsReplyDeliveredBeforeDeadline pins what a fan-out collecting
// its legs in turn under one shared deadline relies on: a reply that
// arrived before the context was done is returned by a Wait called after
// it, never reported as a timeout, and its latency sample ends when it
// arrived, not when the caller got round to collecting it.
func TestWaitKeepsReplyDeliveredBeforeDeadline(t *testing.T) {
	const rounds = 32 // a coin-flip between reply and deadline would show
	const late = 50 * time.Millisecond
	for name, raw := range sendTransports() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := transport.Instrument(raw, transport.NewMetrics(reg))
			srv, err := tr.Serve("", func(req transport.Request) transport.Response {
				return transport.Response{Found: true, Value: req.Key}
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
			for i := range rounds {
				ctx, cancel := context.WithCancel(context.Background())
				p := cl.Send(ctx, transport.Request{Op: transport.OpQuery, Key: uint64(i)})
				for deadline := time.Now().Add(5 * time.Second); !transport.ReplyDelivered(p); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("no reply within 5s")
					}
				}
				if i == 0 {
					time.Sleep(late) // collected late: the sample must not grow with it
				}
				cancel()
				resp, err := p.Wait()
				if err != nil || resp.Value != uint64(i) {
					t.Fatalf("round %d: Wait after the reply arrived and then the context was cancelled = %+v, %v; want the reply", i, resp, err)
				}
				if i > 0 {
					continue
				}
				h, ok := reg.Snapshot().MergeHistograms("pdht_transport_request_seconds")
				if !ok || h.Count != 1 {
					t.Fatalf("latency histogram holds %d samples, want 1", h.Count)
				}
				if got := time.Duration(h.Sum * float64(time.Second)); got >= late {
					t.Errorf("latency sample of a reply collected %v late = %v: it ran to collection, not delivery", late, got)
				}
			}
		})
	}
}
