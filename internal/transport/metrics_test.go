package transport

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pdht/internal/obs"
)

// exerciseInstrumented runs a few calls through an instrumented transport
// and checks the per-op counters, latency histograms and in-flight gauge —
// the backend-independent part of the contract.
func exerciseInstrumented(t *testing.T, raw Transport) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := Instrument(raw, m)

	srv, err := tr.Serve("", func(req Request) Response {
		if req.Op == OpQuery {
			return Response{Found: true, Value: req.Key * 2}
		}
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := c.Call(ctx, Request{Op: OpQuery, Key: 7})
		if err != nil || !resp.Found || resp.Value != 14 {
			t.Fatalf("query %d: resp %+v err %v", i, resp, err)
		}
	}
	if resp, err := c.Call(ctx, Request{Op: OpInsert, Key: 7, Value: 14}); err != nil || !resp.OK {
		t.Fatalf("insert: resp %+v err %v", resp, err)
	}

	if got := m.requests[opSlot(OpQuery)].Value(); got != 3 {
		t.Errorf("query requests = %d, want 3", got)
	}
	if got := m.served[opSlot(OpQuery)].Value(); got != 3 {
		t.Errorf("query served = %d, want 3", got)
	}
	if got := m.requests[opSlot(OpInsert)].Value(); got != 1 {
		t.Errorf("insert requests = %d, want 1", got)
	}
	if got := m.latency[opSlot(OpQuery)].Count(); got != 3 {
		t.Errorf("query latency count = %d, want 3", got)
	}
	if got := m.failures[opSlot(OpQuery)].Value(); got != 0 {
		t.Errorf("query failures = %d, want 0", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after quiesce = %d, want 0", got)
	}
	return reg
}

func TestInstrumentMemory(t *testing.T) {
	reg := exerciseInstrumented(t, NewMemory())
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `pdht_transport_requests_total{op="query"} 3`) {
		t.Errorf("exposition missing per-op counter:\n%s", b.String())
	}
	// The loopback moves no bytes.
	if !strings.Contains(b.String(), "pdht_transport_bytes_in_total 0") {
		t.Errorf("memory transport should report zero bytes:\n%s", b.String())
	}
}

func TestInstrumentTCPCountsBytes(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := Instrument(NewTCP(), m)

	srv, err := tr.Serve("", func(req Request) Response {
		return Response{Found: true, Value: req.Key}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, Request{Op: OpQuery, Key: 99}); err != nil {
		t.Fatal(err)
	}

	// Both directions saw at least a frame header + JSON body; the client's
	// outbound bytes are the server's inbound bytes and vice versa, and both
	// land in the same shared counters.
	if in := m.bytesIn.Value(); in < 8 {
		t.Errorf("bytes in = %d, want at least a frame each way", in)
	}
	if out := m.bytesOut.Value(); out < 8 {
		t.Errorf("bytes out = %d, want at least a frame each way", out)
	}
}

func TestInstrumentCountsFailures(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := Instrument(NewMemory(), m)
	c, err := tr.Dial("nobody-home")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), Request{Op: OpQuery, Key: 1}); err == nil {
		t.Fatal("call to missing endpoint succeeded")
	}
	if got := m.failures[opSlot(OpQuery)].Value(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
}

// TestEveryOpHasItsOwnMetricSlot walks the Op constants: each must land in
// a slot of its own, labelled with its String(), in all four per-op
// families — an op added without growing the tables would otherwise be
// filed under op="other" in silence.
func TestEveryOpHasItsOwnMetricSlot(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := Instrument(NewMemory(), m)
	srv, err := tr.Serve("", func(Request) Response { return Response{OK: true} })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := make(map[int]Op)
	for op := OpQuery; op < opEnd; op++ {
		slot := opSlot(op)
		if prev, dup := seen[slot]; dup || slot == 0 {
			t.Fatalf("%v shares slot %d with %v (slot 0 is \"other\")", op, slot, prev)
		}
		seen[slot] = op
		label := opLabel(slot)
		if label != op.String() || strings.HasPrefix(label, "op(") {
			t.Errorf("op %d is labelled %q, String() says %q", int(op), label, op.String())
		}
		if _, err := c.Call(context.Background(), Request{Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	if opSlot(opEnd) != 0 || opSlot(0) != 0 {
		t.Error("an undefined op must fall into the \"other\" slot")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, op := range seen {
		for _, family := range []string{"requests_total", "served_total", "request_seconds_count"} {
			series := fmt.Sprintf("pdht_transport_%s{op=%q} 1\n", family, op)
			if !strings.Contains(b.String(), series) {
				t.Errorf("exposition lacks %q", strings.TrimSpace(series))
			}
		}
	}
	if strings.Contains(b.String(), `pdht_transport_requests_total{op="other"} 1`) {
		t.Error("a defined op was filed under op=\"other\"")
	}
}
