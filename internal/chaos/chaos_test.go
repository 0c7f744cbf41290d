package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pdht/internal/transport"
)

// twoGroups returns two addresses landing in different groups of a k-way
// split (and, for oneway tests, the first one in group 0).
func twoGroups(t *testing.T, k int) (in0, other string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		a := fmt.Sprintf("addr-%d", i)
		switch GroupOf(a, k) {
		case 0:
			if in0 == "" {
				in0 = a
			}
		default:
			if other == "" {
				other = a
			}
		}
		if in0 != "" && other != "" {
			return in0, other
		}
	}
	t.Fatal("hash split produced a single group over 1000 addresses")
	return "", ""
}

func TestGroupOf(t *testing.T) {
	if GroupOf("x", 1) != 0 || GroupOf("x", 0) != 0 {
		t.Fatal("k<2 must collapse to group 0")
	}
	for _, k := range []int{2, 3, 5} {
		seen := map[int]int{}
		for i := 0; i < 300; i++ {
			a := fmt.Sprintf("peer-%04d", i)
			g := GroupOf(a, k)
			if g < 0 || g >= k {
				t.Fatalf("GroupOf(%q,%d) = %d out of range", a, k, g)
			}
			if g != GroupOf(a, k) {
				t.Fatal("GroupOf is not deterministic")
			}
			seen[g]++
		}
		if len(seen) != k {
			t.Fatalf("300 addresses filled %d of %d groups", len(seen), k)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("healthy=2s, drop20+split3=10s ,heal=30s")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[1].Split != 3 || s[1].Drop != 0.20 || s[1].OneWay {
		t.Fatalf("parsed %+v", s)
	}
	if s.Total() != 42*time.Second {
		t.Fatalf("Total = %s", s.Total())
	}
	ow, err := ParseSchedule("oneway2+drop5=1s")
	if err != nil || ow[0].Split != 2 || !ow[0].OneWay || ow[0].Drop != 0.05 {
		t.Fatalf("oneway parse: %+v, %v", ow, err)
	}
	for _, bad := range []string{"", "x", "split1=1s", "drop200=1s", "split3", "split3=-1s", "wat=1s"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("schedule %q should not parse", bad)
		}
	}
	// String round-trips through the parser.
	back, err := ParseSchedule(s.String())
	if err != nil || back.String() != s.String() {
		t.Fatalf("round trip: %q vs %q (%v)", back.String(), s.String(), err)
	}
}

// FuzzParseSchedule feeds the schedule parser arbitrary text (it takes
// -chaos-schedule and pdht-chaos -schedule straight from the command line):
// it must never panic, and whatever it accepts must survive String and a
// second parse phase for phase. Seeds: testdata/fuzz/FuzzParseSchedule.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseSchedule(s)
		if err != nil {
			return
		}
		back, err := ParseSchedule(sc.String())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, sc.String(), err)
		}
		if !slices.Equal(back, sc) {
			t.Fatalf("%q round trip changed the schedule:\n got %+v\nwant %+v", s, back, sc)
		}
	})
}

// echoNet is a Memory transport with an echoing endpoint at each listed
// address, wrapped by a chaos Network.
func echoNet(t *testing.T, cfg Config, addrs ...string) *Network {
	t.Helper()
	mem := transport.NewMemory()
	for _, a := range addrs {
		if _, err := mem.Serve(a, func(req transport.Request) transport.Response {
			return transport.Response{OK: true, Value: req.Key}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return New(mem, cfg)
}

func TestPartitionSemantics(t *testing.T) {
	a, b := twoGroups(t, 2)
	net := echoNet(t, Config{Seed: 7}, a, b)
	cli, err := net.Node(a).Dial(b)
	if err != nil {
		t.Fatal(err)
	}

	call := func(ctx context.Context) error {
		_, err := cli.Call(ctx, transport.Request{Op: transport.OpQuery, Key: 1})
		return err
	}
	if err := call(context.Background()); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}

	net.Split(2)
	// No deadline: the blackhole surfaces as ErrUnreachable immediately.
	if err := call(context.Background()); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("cut call without deadline: err = %v, want ErrUnreachable", err)
	}
	// With a deadline: the call waits it out, like a lost packet.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	start := time.Now()
	err = call(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) < 15*time.Millisecond {
		t.Fatalf("cut call with deadline: err = %v after %s, want DeadlineExceeded after ~20ms", err, time.Since(start))
	}

	net.Heal()
	if err := call(context.Background()); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}

	// Loopback is exempt even under a split.
	net.Split(2)
	self, err := net.Node(a).Dial(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := self.Call(context.Background(), transport.Request{Op: transport.OpQuery}); err != nil {
		t.Fatalf("loopback call under split failed: %v", err)
	}
}

func TestOneWaySplit(t *testing.T) {
	in0, other := twoGroups(t, 2)
	net := echoNet(t, Config{Seed: 3}, in0, other)
	net.OneWay(2)

	// other → in0 is cut (traffic INTO group 0)…
	toZero, _ := net.Node(other).Dial(in0)
	if _, err := toZero.Call(context.Background(), transport.Request{Op: transport.OpQuery}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call into group 0 survived a one-way cut: %v", err)
	}
	// …but in0 → other still flows: group 0 can call out and hear replies.
	fromZero, _ := net.Node(in0).Dial(other)
	if _, err := fromZero.Call(context.Background(), transport.Request{Op: transport.OpQuery}); err != nil {
		t.Fatalf("outbound call from group 0 failed under one-way cut: %v", err)
	}
}

// The same seed must produce the same per-link fault sequence — the
// property that makes a failing chaos run reproducible.
func TestDropDeterminism(t *testing.T) {
	pattern := func() []bool {
		net := echoNet(t, Config{Seed: 99, Drop: 0.5}, "a", "b")
		cli, _ := net.Node("a").Dial("b")
		out := make([]bool, 60)
		for i := range out {
			_, err := cli.Call(context.Background(), transport.Request{Op: transport.OpQuery})
			out[i] = err == nil
		}
		return out
	}
	p1, p2 := pattern(), pattern()
	ok, dropped := 0, 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("call %d diverged across identically-seeded runs", i)
		}
		if p1[i] {
			ok++
		} else {
			dropped++
		}
	}
	// 60 draws at 1-(1-0.5)² = 75% loss: both outcomes must appear.
	if ok == 0 || dropped == 0 {
		t.Fatalf("drop 0.5 produced %d ok / %d dropped over 60 calls", ok, dropped)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	var calls atomic.Int64
	mem := transport.NewMemory()
	if _, err := mem.Serve("b", func(req transport.Request) transport.Response {
		calls.Add(1)
		return transport.Response{OK: true}
	}); err != nil {
		t.Fatal(err)
	}
	net := New(mem, Config{Seed: 5, Duplicate: 1})
	cli, _ := net.Node("a").Dial("b")
	if _, err := cli.Call(context.Background(), transport.Request{Op: transport.OpQuery}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("duplicate=1 delivered %d times, want 2", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLatencyDelaysCalls(t *testing.T) {
	net := echoNet(t, Config{Seed: 2, LatencyBase: 30 * time.Millisecond}, "a", "b")
	cli, _ := net.Node("a").Dial("b")
	start := time.Now()
	if _, err := cli.Call(context.Background(), transport.Request{Op: transport.OpQuery}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("call returned in %s, want ≥ 30ms base latency", d)
	}
}

func TestConvergenceBound(t *testing.T) {
	b100 := ConvergenceBound(100, 40*time.Millisecond, 200*time.Millisecond, 160*time.Millisecond, 0.125)
	b1000 := ConvergenceBound(1000, 40*time.Millisecond, 200*time.Millisecond, 160*time.Millisecond, 0.125)
	if b1000 <= b100 {
		t.Fatalf("bound must grow with n: %s vs %s", b100, b1000)
	}
	if b100 < time.Second || b1000 > 5*time.Minute {
		t.Fatalf("implausible bounds: n=100 %s, n=1000 %s", b100, b1000)
	}
	// Zero parameters take the gossip defaults instead of dividing by zero.
	if d := ConvergenceBound(0, 0, 0, 0, 0); d <= 0 {
		t.Fatalf("default bound %s", d)
	}
}
