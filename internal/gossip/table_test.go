package gossip

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"pdht/internal/transport"
)

// pendingClaims returns the claims s still has to piggyback, in address
// order.
func pendingClaims(s *Service) []transport.PeerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []transport.PeerState
	for _, m := range s.table {
		if m.left > 0 {
			out = append(out, transport.PeerState{Addr: m.Addr, Status: uint8(m.Status), Incarnation: m.Incarnation})
		}
	}
	return out
}

// refTable is SWIM precedence kept the obvious way: a map of rows, the
// view version, and the transmissions left to each address's claim
// awaiting dissemination.
type refTable struct {
	self    string
	rows    map[string]Member
	version uint64
	pending map[string]int
}

func newRefTable(self string) *refTable {
	return &refTable{
		self:    self,
		rows:    map[string]Member{self: {Addr: self}},
		version: 1,
		pending: map[string]int{},
	}
}

// apply folds one claim in and reports whether the alive set changed.
func (r *refTable) apply(u transport.PeerState) bool {
	st := Status(u.Status)
	m, known := r.rows[u.Addr]
	if u.Addr == r.self {
		// A claim against self at its own incarnation or above is
		// refuted with incarnation + 1; a higher alive claim is adopted.
		switch {
		case st != StatusAlive && u.Incarnation >= m.Incarnation:
			m.Incarnation = u.Incarnation + 1
			r.queue(r.self)
		case st == StatusAlive && u.Incarnation > m.Incarnation:
			m.Incarnation = u.Incarnation
		}
		r.rows[r.self] = m
		return false
	}
	// A higher incarnation wins; at an equal one the more severe status.
	if known && u.Incarnation < m.Incarnation || known && u.Incarnation == m.Incarnation && st <= m.Status {
		return false
	}
	r.rows[u.Addr] = Member{Addr: u.Addr, Status: st, Incarnation: u.Incarnation}
	r.queue(u.Addr)
	// A stranger counts as dead until heard of: learning of its death
	// changes no alive set.
	if wasDead := !known || m.Status == StatusDead; wasDead != (st == StatusDead) {
		r.version++
		return true
	}
	return false
}

func (r *refTable) suspect(addr string) {
	if m, ok := r.rows[addr]; ok && m.Status == StatusAlive {
		m.Status = StatusSuspect
		r.rows[addr] = m
		r.queue(addr)
	}
}

// queue gives addr's current claim a full budget: retransmitMult ×
// ⌈log₂(n+1)⌉ transmissions over n known members, at least retransmitMult.
func (r *refTable) queue(addr string) {
	r.pending[addr] = retransmitMult * max(1, bits.Len(uint(len(r.rows))))
}

func (r *refTable) snapshot() []Member {
	out := make([]Member, 0, len(r.rows))
	for _, a := range slices.Sorted(maps.Keys(r.rows)) {
		out = append(out, r.rows[a])
	}
	return out
}

func (r *refTable) alive() []string {
	var out []string
	for _, m := range r.snapshot() {
		if m.Status != StatusDead {
			out = append(out, m.Addr)
		}
	}
	return out
}

// TestTableMatchesReference drives a Service with seeded random batches —
// addresses from a pool of 40 that includes self, every status, small
// incarnations, some batches in address order as a full-state payload
// arrives, interleaved suspicions and piggyback takes — and holds it to
// refTable after every step: the same rows, alive set and version, one
// sorted duplicate-free OnChange list exactly when the alive set changed,
// one pending claim per touched address carrying its current state and the
// budget its last change gave it, and every piggyback batch the
// maxPiggyback claims with the most transmissions left, ties in address
// order.
func TestTableMatchesReference(t *testing.T) {
	noNet := func(context.Context, string, transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, false, errors.New("no network in this test")
	}
	pool := make([]string, 40)
	for i := range pool {
		pool[i] = fmt.Sprintf("p%02d", i)
	}
	const self = "p20"
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var notes [][]string
		s, err := New(Config{Addr: self, OnChange: func(alive []string, _ uint64) {
			notes = append(notes, alive)
		}}, noNet)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable(self)
		for step := 0; step < 300; step++ {
			notes = notes[:0]
			changed := false
			switch op := rng.IntN(10); {
			case op == 0:
				addr := pool[rng.IntN(len(pool))]
				if addr == self {
					continue // nobody probes itself
				}
				s.suspect(addr)
				ref.suspect(addr)
			case op == 1:
				checkTake(t, s, ref)
			default:
				batch := make([]transport.PeerState, 1+rng.IntN(12))
				for i := range batch {
					batch[i] = transport.PeerState{
						Addr:        pool[rng.IntN(len(pool))],
						Status:      uint8(rng.IntN(3)),
						Incarnation: uint64(rng.IntN(4)),
					}
				}
				if op == 2 {
					slices.SortFunc(batch, func(a, b transport.PeerState) int { return strings.Compare(a.Addr, b.Addr) })
				}
				s.merge(batch)
				for _, u := range batch {
					changed = ref.apply(u) || changed
				}
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if got, want := s.Snapshot(), ref.snapshot(); !slices.Equal(got, want) {
				t.Fatalf("%s: Snapshot = %v, want %v", where, got, want)
			}
			if got, want := s.Alive(), ref.alive(); !slices.Equal(got, want) {
				t.Fatalf("%s: Alive = %v, want %v", where, got, want)
			}
			if got := s.Version(); got != ref.version {
				t.Fatalf("%s: Version = %d, want %d", where, got, ref.version)
			}
			if changed != (len(notes) == 1) || len(notes) > 1 {
				t.Fatalf("%s: %d OnChange calls, alive set changed: %v", where, len(notes), changed)
			}
			for _, n := range notes {
				if !slices.Equal(n, ref.alive()) {
					t.Fatalf("%s: OnChange list %v, want %v", where, n, ref.alive())
				}
			}
			claims := pendingClaims(s)
			if len(claims) != len(ref.pending) || len(claims) != s.pending {
				t.Fatalf("%s: %d pending claims (counter %d), want one per touched address %v",
					where, len(claims), s.pending, slices.Sorted(maps.Keys(ref.pending)))
			}
			for _, c := range claims {
				m := ref.rows[c.Addr]
				if ref.pending[c.Addr] == 0 || Status(c.Status) != m.Status || c.Incarnation != m.Incarnation {
					t.Fatalf("%s: pending claim %+v, want the current row %+v", where, c, m)
				}
			}
			for _, m := range s.table {
				if m.left != ref.pending[m.Addr] {
					t.Fatalf("%s: %s has %d transmissions left, want %d", where, m.Addr, m.left, ref.pending[m.Addr])
				}
			}
		}
	}
}

// checkTake takes one piggyback batch and checks it against ref's
// budgets: the maxPiggyback claims with the most transmissions left, ties
// in address order, each of which then has one transmission less.
func checkTake(t *testing.T, s *Service, ref *refTable) {
	t.Helper()
	want := slices.Sorted(maps.Keys(ref.pending))
	slices.SortStableFunc(want, func(a, b string) int { return ref.pending[b] - ref.pending[a] })
	want = want[:min(len(want), maxPiggyback)]
	s.mu.Lock()
	got := s.takePiggybackLocked()
	s.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("batch of %d claims, want %d", len(got), len(want))
	}
	for i, addr := range want {
		if got[i].Addr != addr {
			t.Fatalf("batch %v, want the claims of %v in that order", got, want)
		}
		if ref.pending[addr]--; ref.pending[addr] == 0 {
			delete(ref.pending, addr)
		}
	}
}
