package gossip

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pdht/internal/obs"
	"pdht/internal/transport"
)

// fakeNet wires Services directly to each other's HandleMessage, with
// whole-node and single-direction link failures injectable — the failure
// detector's test substrate, no transport involved.
type fakeNet struct {
	mu       sync.Mutex
	services map[string]*Service
	down     map[string]bool // node crashed
	cut      map[string]bool // "from>to" one-way link severed
}

func newFakeNet() *fakeNet {
	return &fakeNet{
		services: make(map[string]*Service),
		down:     make(map[string]bool),
		cut:      make(map[string]bool),
	}
}

func (f *fakeNet) caller(from string) Caller {
	return func(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
		f.mu.Lock()
		svc, ok := f.services[addr]
		unreachable := !ok || f.down[addr] || f.cut[from+">"+addr]
		f.mu.Unlock()
		if unreachable {
			return transport.Gossip{}, false, errors.New("unreachable")
		}
		r, rok := svc.HandleMessage(msg)
		return r, rok, nil
	}
}

// testConfig is fast enough that convergence and suspicion are observable
// within a test run: 10ms protocol period, 40ms suspicion window.
func testConfig(addr string) Config {
	return Config{
		Addr:             addr,
		ProbeInterval:    10 * time.Millisecond,
		SuspicionTimeout: 40 * time.Millisecond,
		SyncInterval:     20 * time.Millisecond,
	}
}

func (f *fakeNet) add(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg, f.caller(cfg.Addr))
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.services[cfg.Addr] = s
	f.mu.Unlock()
	return s
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sameMembers(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestJoinAndConverge(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	for _, s := range []*Service{a, b, c} {
		s.Start()
		defer s.Stop()
	}
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full) && sameMembers(c.Alive(), full)
	}, "3-way convergence")
	// b never talked to c directly; gossip alone delivered each to the
	// other, and joining bumped everyone's view version past the initial.
	if a.Version() < 2 || b.Version() < 2 || c.Version() < 2 {
		t.Fatalf("versions after convergence: a=%d b=%d c=%d, want ≥2 each",
			a.Version(), b.Version(), c.Version())
	}
}

func TestJoinUnreachableSeedFails(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	if err := a.Join(context.Background(), "ghost"); err == nil {
		t.Fatal("join of a nonexistent seed succeeded")
	}
}

// TestDeadPeerDetectedAndEvicted is the SWIM core: a silently crashed
// member is suspected, confirmed dead within the suspicion timeout, and
// leaves every live view — with OnChange reporting the shrunken alive set.
func TestDeadPeerDetectedAndEvicted(t *testing.T) {
	net := newFakeNet()
	var mu sync.Mutex
	var lastAlive []string
	cfgA := testConfig("a")
	cfgA.OnChange = func(alive []string, version uint64) {
		mu.Lock()
		lastAlive = alive
		mu.Unlock()
	}
	a := net.add(t, cfgA)
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	for _, s := range []*Service{a, b, c} {
		s.Start()
		defer s.Stop()
	}
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full) && sameMembers(c.Alive(), full)
	}, "3-way convergence")

	net.mu.Lock()
	net.down["c"] = true
	net.mu.Unlock()
	c.Stop()
	want := []string{"a", "b"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), want) && sameMembers(b.Alive(), want)
	}, "dead peer evicted from both live views")

	for _, m := range a.Snapshot() {
		if m.Addr == "c" && m.Status != StatusDead {
			t.Fatalf("c's status at a = %v, want dead", m.Status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !sameMembers(lastAlive, want) {
		t.Fatalf("last OnChange alive set = %v, want %v", lastAlive, want)
	}
}

// TestRestartRefutation is the crash-recovery path: a member everyone
// declared dead rejoins at the same address, learns of its own death from
// the seed's full state, refutes it with a higher incarnation, and returns
// to every live view.
func TestRestartRefutation(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	for _, s := range []*Service{a, b} {
		s.Start()
		defer s.Stop()
	}
	c.Start()
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full)
	}, "3-way convergence")

	net.mu.Lock()
	net.down["c"] = true
	net.mu.Unlock()
	c.Stop()
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), []string{"a", "b"})
	}, "crash detected")

	// Restart: a fresh service at the same address, incarnation zero.
	c2 := net.add(t, testConfig("c"))
	net.mu.Lock()
	net.down["c"] = false
	net.mu.Unlock()
	c2.Start()
	defer c2.Stop()
	if err := c2.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full) && sameMembers(c2.Alive(), full)
	}, "restarted member resurrected in every view")

	// The refutation must have pushed the incarnation past the one it
	// died with — that is what beats the propagated death certificate.
	for _, m := range c2.Snapshot() {
		if m.Addr == "c" && m.Incarnation == 0 {
			t.Fatal("restarted member still at incarnation 0; refutation never happened")
		}
	}
}

// TestIndirectProbeSavesAsymmetricFailure cuts only the a→c link: a's
// direct probes of c fail forever, but the ping-req detour through b keeps
// answering, so c must never be confirmed dead.
func TestIndirectProbeSavesAsymmetricFailure(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	for _, s := range []*Service{a, b, c} {
		s.Start()
		defer s.Stop()
	}
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full) && sameMembers(c.Alive(), full)
	}, "3-way convergence")

	net.mu.Lock()
	net.cut["a>c"] = true
	net.mu.Unlock()
	// Let many protocol periods pass — enough that, without indirect
	// probing, suspicion would long since have confirmed death.
	time.Sleep(20 * testConfig("a").ProbeInterval)
	if !sameMembers(a.Alive(), full) {
		t.Fatalf("alive set at a = %v after asymmetric cut, want %v", a.Alive(), full)
	}
}

// TestMergePrecedence pins the SWIM ordering rules the whole protocol
// rests on: incarnation first, severity second, and self-claims refuted.
func TestMergePrecedence(t *testing.T) {
	deadCaller := func(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, false, errors.New("no network in this test")
	}
	alive := func(addr string, inc uint64) transport.PeerState {
		return transport.PeerState{Addr: addr, Status: uint8(StatusAlive), Incarnation: inc}
	}
	dead := func(addr string, inc uint64) transport.PeerState {
		return transport.PeerState{Addr: addr, Status: uint8(StatusDead), Incarnation: inc}
	}
	statusOf := func(s *Service, addr string) (Status, uint64) {
		for _, m := range s.Snapshot() {
			if m.Addr == addr {
				return m.Status, m.Incarnation
			}
		}
		t.Fatalf("member %s missing from snapshot", addr)
		return 0, 0
	}

	s, err := New(Config{Addr: "self"}, deadCaller)
	if err != nil {
		t.Fatal(err)
	}

	// A new member arrives alive; the view version moves.
	v0 := s.Version()
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{alive("x", 3)}})
	if st, _ := statusOf(s, "x"); st != StatusAlive {
		t.Fatalf("x = %v, want alive", st)
	}
	if s.Version() <= v0 {
		t.Fatal("new alive member did not bump the version")
	}

	// Equal incarnation: the more severe claim wins.
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{dead("x", 3)}})
	if st, _ := statusOf(s, "x"); st != StatusDead {
		t.Fatalf("x = %v after equal-incarnation death, want dead", st)
	}

	// A stale alive claim (same incarnation it died with) must NOT
	// resurrect — that is the rank-shift poison SWIM incarnations exist
	// to block.
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{alive("x", 3)}})
	if st, _ := statusOf(s, "x"); st != StatusDead {
		t.Fatal("stale alive claim resurrected a dead member")
	}

	// A higher incarnation does resurrect.
	v1 := s.Version()
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{alive("x", 4)}})
	if st, inc := statusOf(s, "x"); st != StatusAlive || inc != 4 {
		t.Fatalf("x = %v inc %d after refutation, want alive inc 4", st, inc)
	}
	if s.Version() <= v1 {
		t.Fatal("resurrection did not bump the version")
	}

	// A death claim about self is refuted on the spot: our incarnation
	// jumps past the claim and the refutation joins the gossip queue.
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{dead("self", 7)}})
	if st, inc := statusOf(s, "self"); st != StatusAlive || inc != 8 {
		t.Fatalf("self = %v inc %d after death claim, want alive inc 8", st, inc)
	}
	refuted := false
	for _, c := range pendingClaims(s) {
		if c.Addr == "self" && Status(c.Status) == StatusAlive && c.Incarnation == 8 {
			refuted = true
		}
	}
	if !refuted {
		t.Fatal("refutation of own death never entered the piggyback queue")
	}
}

// TestPiggybackBatching pins the dissemination mechanics: batches respect
// maxPiggyback, retransmissions are finite, and a newer claim about an
// address supersedes the queued older one.
func TestPiggybackBatching(t *testing.T) {
	s, err := New(Config{Addr: "self"},
		func(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
			return transport.Gossip{}, false, errors.New("unused")
		})
	if err != nil {
		t.Fatal(err)
	}
	var updates []transport.PeerState
	for i := 0; i < 10; i++ {
		updates = append(updates, transport.PeerState{
			Addr: fmt.Sprintf("m%d", i), Status: uint8(StatusAlive), Incarnation: 1,
		})
	}
	s.MergeState(transport.Gossip{Updates: updates})

	s.mu.Lock()
	batch := s.takePiggybackLocked()
	s.mu.Unlock()
	if len(batch) != maxPiggyback {
		t.Fatalf("batch size %d, want maxPiggyback=%d", len(batch), maxPiggyback)
	}

	// Superseding: re-announce m0 dead at a higher incarnation; exactly
	// one queued claim about m0 must remain, the new one.
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{
		{Addr: "m0", Status: uint8(StatusDead), Incarnation: 2},
	}})
	claims := 0
	for _, c := range pendingClaims(s) {
		if c.Addr == "m0" {
			claims++
			if Status(c.Status) != StatusDead || c.Incarnation != 2 {
				t.Fatalf("queued claim about m0 = %+v, want the superseding death", c)
			}
		}
	}
	if claims != 1 {
		t.Fatalf("%d queued claims about m0, want exactly 1", claims)
	}

	// The queue must drain: every update has a finite transmission
	// budget, so repeated taking empties it.
	for i := 0; i < 100; i++ {
		s.mu.Lock()
		b := s.takePiggybackLocked()
		s.mu.Unlock()
		if len(b) == 0 && len(pendingClaims(s)) == 0 {
			return
		}
	}
	t.Fatal("piggyback queue never drained")
}

// TestDeadMemberForgottenAfterRetention bounds the table: a confirmed-dead
// member (think: an exited one-shot querier) must leave the table once
// its retention lapses, or a long-lived node accumulates one permanent
// dead row — shipped in every anti-entropy payload — per visitor.
func TestDeadMemberForgottenAfterRetention(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	for _, s := range []*Service{a, b} {
		s.Start()
		defer s.Stop()
	}
	c.Start()
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool { return sameMembers(a.Alive(), full) }, "3-way convergence")

	net.mu.Lock()
	net.down["c"] = true
	net.mu.Unlock()
	c.Stop()
	waitFor(t, 5*time.Second, func() bool { return sameMembers(a.Alive(), []string{"a", "b"}) }, "death confirmed")

	// The dead row must linger (resurrection guard), then vanish.
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range a.Snapshot() {
			if m.Addr == "c" {
				return false
			}
		}
		return true
	}, "dead member forgotten after retention")
	// Forgetting must not have disturbed the view.
	if !sameMembers(a.Alive(), []string{"a", "b"}) {
		t.Fatalf("alive set at a = %v after purge, want [a b]", a.Alive())
	}
}

// TestStopIsIdempotent guards the shutdown path.
func TestStopIsIdempotent(t *testing.T) {
	net := newFakeNet()
	s := net.add(t, testConfig("a"))
	s.Start()
	s.Stop()
	s.Stop()
}

// TestRefutationBeatsAsymmetricLoss pins the liveness bound the chaos
// harness's convergence math rests on: a member that can call out but
// cannot be called — one-way loss, the nastiest failure-detector input —
// must refute every suspicion of it with an incarnation bump BEFORE the
// suspicion timeout expires, and therefore never be confirmed dead. The
// refutation channel is the member's own outbound traffic: its pings carry
// the piggybacked alive-at-higher-incarnation claim, so one outbound
// protocol period per suspicion window (here 4 periods per window) is the
// pinned requirement.
func TestRefutationBeatsAsymmetricLoss(t *testing.T) {
	net := newFakeNet()
	a := net.add(t, testConfig("a"))
	b := net.add(t, testConfig("b"))
	c := net.add(t, testConfig("c"))
	reg := obs.NewRegistry()
	b.RegisterMetrics(reg)
	for _, s := range []*Service{a, b, c} {
		s.Start()
		defer s.Stop()
	}
	if err := b.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	full := []string{"a", "b", "c"}
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(a.Alive(), full) && sameMembers(b.Alive(), full) && sameMembers(c.Alive(), full)
	}, "3-way convergence")

	// b goes inbound-deaf from EVERYONE: direct probes and indirect
	// ping-reqs both fail, so suspicion is continuously re-raised and
	// only b's own outbound refutations can answer it.
	net.mu.Lock()
	net.cut["a>b"] = true
	net.cut["c>b"] = true
	net.mu.Unlock()

	// Watch for 30 suspicion windows: b may oscillate alive↔suspect, but
	// must never be confirmed dead nor leave an alive set.
	cfg := testConfig("a")
	deadline := time.Now().Add(30 * cfg.SuspicionTimeout)
	for time.Now().Before(deadline) {
		for _, s := range []*Service{a, c} {
			for _, m := range s.Snapshot() {
				if m.Addr == "b" && m.Status == StatusDead {
					t.Fatalf("%s confirmed b dead despite live outbound refutations", s.cfg.Addr)
				}
			}
			if !sameMembers(s.Alive(), full) {
				t.Fatalf("alive set at %s = %v under one-way loss, want %v", s.cfg.Addr, s.Alive(), full)
			}
		}
		time.Sleep(cfg.ProbeInterval)
	}
	if got := b.metrics.refutations.Value(); got == 0 {
		t.Fatal("b was suspected for 30 windows yet never refuted — the bump path never fired")
	}
	// The incarnation must have advanced past its initial value and the
	// refuted claims must have propagated back to the suspecting side.
	for _, m := range a.Snapshot() {
		if m.Addr == "b" && m.Incarnation == 0 {
			t.Fatal("a never saw a refuted (bumped) incarnation for b")
		}
	}
}

// TestDeadSyncHealsPartition drives the full partition lifecycle the chaos
// harness measures: a two-sided cut lets each half confirm the other dead;
// after the cut lifts, the only crossing traffic is the dead-member
// anti-entropy sync (Config.DeadSyncFraction), whose exchange triggers the
// target's self-refutation and carries the bumped incarnation straight
// back — both halves must re-merge to the full alive set.
func TestDeadSyncHealsPartition(t *testing.T) {
	net := newFakeNet()
	addrs := []string{"a", "b", "c", "d"}
	var svcs []*Service
	for _, addr := range addrs {
		svcs = append(svcs, net.add(t, testConfig(addr)))
	}
	for _, s := range svcs {
		s.Start()
		defer s.Stop()
	}
	for _, s := range svcs[1:] {
		if err := s.Join(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
	}
	allAlive := func() bool {
		for _, s := range svcs {
			if !sameMembers(s.Alive(), addrs) {
				return false
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, allAlive, "4-way convergence")

	// Partition {a,b} | {c,d}: every cross link cut in both directions.
	setCut := func(on bool) {
		net.mu.Lock()
		for _, x := range []string{"a", "b"} {
			for _, y := range []string{"c", "d"} {
				if on {
					net.cut[x+">"+y] = true
					net.cut[y+">"+x] = true
				} else {
					delete(net.cut, x+">"+y)
					delete(net.cut, y+">"+x)
				}
			}
		}
		net.mu.Unlock()
	}
	setCut(true)
	waitFor(t, 5*time.Second, func() bool {
		return sameMembers(svcs[0].Alive(), []string{"a", "b"}) &&
			sameMembers(svcs[2].Alive(), []string{"c", "d"})
	}, "both sides confirming the other half dead")

	// Heal while the dead entries are still retained: only dead-sync can
	// cross the former cut, and it must re-merge both sides.
	setCut(false)
	waitFor(t, 10*time.Second, allAlive, "post-heal re-merge via dead-member anti-entropy")
}

// TestOnChangeHandsOverAFreshSortedList pins the contract the node's view
// path reads OnChange's slice under without copying it: the list is sorted
// and duplicate-free however the updates arrive, and it is the receiver's
// to keep — writing into it changes neither Alive nor the next
// notification.
func TestOnChangeHandsOverAFreshSortedList(t *testing.T) {
	noNet := func(context.Context, string, transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, false, errors.New("no network in this test")
	}
	alive := func(addrs ...string) transport.Gossip {
		var g transport.Gossip
		for _, a := range addrs {
			g.Updates = append(g.Updates, transport.PeerState{Addr: a, Status: uint8(StatusAlive)})
		}
		return g
	}
	var got [][]string
	s, err := New(Config{Addr: "m", OnChange: func(alive []string, _ uint64) {
		got = append(got, alive)
	}}, noNet)
	if err != nil {
		t.Fatal(err)
	}

	s.MergeState(alive("z", "b", "q", "b", "a"))
	if want := []string{"a", "b", "m", "q", "z"}; len(got) != 1 || !sameMembers(got[0], want) {
		t.Fatalf("notifications %v, want one of %v", got, want)
	}
	for i := range got[0] {
		got[0][i] = "scribbled"
	}
	if want := []string{"a", "b", "m", "q", "z"}; !sameMembers(s.Alive(), want) {
		t.Fatalf("Alive after the receiver wrote its list = %v, want %v", s.Alive(), want)
	}
	s.MergeState(alive("c", "c"))
	if want := []string{"a", "b", "c", "m", "q", "z"}; len(got) != 2 || !sameMembers(got[1], want) {
		t.Fatalf("next notification %v, want %v", got[1:], want)
	}
}
