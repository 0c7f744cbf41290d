package keyspace

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// This file is the incremental membership ring: a consistent-hash ring over
// member *addresses* (not ranks), built so a membership delta — a handful of
// joins and leaves out of a thousand members — is applied by splicing only
// the changed virtual nodes instead of rebuilding the whole structure. Every
// node that knows the same membership set derives byte-identical rings with
// no extra protocol, because positions are pure hashes of addresses.
//
// The ring answers three questions for the live node layer:
//
//   - Group(key): the first repl distinct members clockwise from the key —
//     the replica set, Group[0] the route primary and the rest the backups
//     in the order reads fail over through them. It is the only replica
//     order the live tree has.
//   - RouteHops(from, key): how many overlay hops an ideal-finger Chord
//     walk from `from` needs to land inside Group(key) — computed on
//     demand from the vnode array (a binary search per hop), not from
//     materialized per-peer finger tables that would need O(n) repair on
//     every change.
//   - Affected(changed): the exact set of key arcs whose replica group can
//     differ because of the changed members — the basis for handoff
//     planning that scans only the affected fraction of the index instead
//     of every entry (see internal/node's handoff.go).
//
// Why addresses and not ranks: a ring that hashes vnode positions from a
// peer's *rank* in the sorted member list lets one join shift every later
// rank and silently re-position almost every vnode — any "incremental"
// update on top of that is a lie. Hashing addresses makes a member's vnodes
// a function of the member alone, which is what makes delta application
// sound.

// RingVnodes is the number of virtual nodes each member projects onto the
// ring. More vnodes smooth load at the cost of proportionally more splice
// work per membership change.
const RingVnodes = 4

// ringVnode is one virtual node: a position owned by a member address.
type ringVnode struct {
	pos  Key
	addr string
}

// MemberRing is an immutable consistent-hash ring over a member set. Apply
// returns a new ring sharing no mutable state with the old one, so a node
// can keep serving reads from the old view while the next is assembled.
type MemberRing struct {
	vnodes  []ringVnode // sorted by pos, ties by addr
	members map[string]struct{}
	repl    int
}

// memberVnodes returns the ring positions addr projects. Position j is the
// hash of "addr#j": stable under any change to the rest of the membership.
func memberVnodes(addr string) []ringVnode {
	out := make([]ringVnode, RingVnodes)
	for j := range out {
		out[j] = ringVnode{pos: HashString(addr + "#" + strconv.Itoa(j)), addr: addr}
	}
	return out
}

func sortVnodes(v []ringVnode) {
	sort.Slice(v, func(a, b int) bool {
		if v[a].pos != v[b].pos {
			return v[a].pos < v[b].pos
		}
		return v[a].addr < v[b].addr
	})
}

// NewMemberRing builds a ring from scratch over the given members (order
// irrelevant, duplicates ignored). repl is the replica-group size Group
// targets; it is clamped to the member count at query time, so a ring can
// be built before the cluster has grown past repl members.
func NewMemberRing(members []string, repl int) *MemberRing {
	if repl < 1 {
		repl = 1
	}
	r := &MemberRing{
		vnodes:  make([]ringVnode, 0, len(members)*RingVnodes),
		members: make(map[string]struct{}, len(members)),
		repl:    repl,
	}
	for _, m := range members {
		if _, dup := r.members[m]; dup {
			continue
		}
		r.members[m] = struct{}{}
		r.vnodes = append(r.vnodes, memberVnodes(m)...)
	}
	sortVnodes(r.vnodes)
	return r
}

// Size returns the number of members on the ring.
func (r *MemberRing) Size() int { return len(r.members) }

// Repl returns the replica-group size Group targets (before clamping).
func (r *MemberRing) Repl() int { return r.repl }

// Contains reports whether addr is a ring member.
func (r *MemberRing) Contains(addr string) bool {
	_, ok := r.members[addr]
	return ok
}

// Apply returns a new ring with joined added and left removed. Only the
// changed members' vnodes are hashed; everything else is a single merge
// pass over the old sorted array — O(n + changed·log changed) with small
// constants, versus the full rebuild's O(n·v) hashing + O(n·v log n·v)
// sort. Joins already present and leaves not present are ignored.
func (r *MemberRing) Apply(joined, left []string) *MemberRing {
	rm := make(map[string]struct{}, len(left))
	for _, a := range left {
		if _, ok := r.members[a]; ok {
			rm[a] = struct{}{}
		}
	}
	var add []ringVnode
	added := make(map[string]struct{}, len(joined))
	for _, a := range joined {
		if _, ok := r.members[a]; ok {
			continue
		}
		if _, dup := added[a]; dup {
			continue
		}
		added[a] = struct{}{}
		add = append(add, memberVnodes(a)...)
	}
	sortVnodes(add)

	next := &MemberRing{
		vnodes:  make([]ringVnode, 0, len(r.vnodes)-len(rm)*RingVnodes+len(add)),
		members: make(map[string]struct{}, len(r.members)-len(rm)+len(added)),
		repl:    r.repl,
	}
	for m := range r.members {
		if _, gone := rm[m]; !gone {
			next.members[m] = struct{}{}
		}
	}
	for m := range added {
		next.members[m] = struct{}{}
	}
	// Merge the surviving old vnodes with the sorted additions.
	i := 0
	for _, v := range r.vnodes {
		if _, gone := rm[v.addr]; gone {
			continue
		}
		for i < len(add) && (add[i].pos < v.pos || (add[i].pos == v.pos && add[i].addr < v.addr)) {
			next.vnodes = append(next.vnodes, add[i])
			i++
		}
		next.vnodes = append(next.vnodes, v)
	}
	next.vnodes = append(next.vnodes, add[i:]...)
	return next
}

// successor returns the index of the first vnode at or clockwise after k,
// wrapping past the top of the key space.
func (r *MemberRing) successor(k Key) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= k })
	if i == len(r.vnodes) {
		return 0
	}
	return i
}

// Group returns the replica group of key: the first min(repl, Size)
// distinct members encountered walking clockwise from key. Group[0] is the
// route primary. Returns nil on an empty ring.
func (r *MemberRing) Group(key Key) []string {
	n := len(r.members)
	if n == 0 {
		return nil
	}
	want := r.repl
	if want > n {
		want = n
	}
	out := make([]string, 0, want)
	i := r.successor(key)
	for len(out) < want {
		v := r.vnodes[i]
		if !slices.Contains(out, v.addr) {
			out = append(out, v.addr)
		}
		i++
		if i == len(r.vnodes) {
			i = 0
		}
	}
	return out
}

// RouteHops simulates an ideal-finger Chord walk from `from` to the replica
// group of key and returns the overlay hop count: 0 when `from` already
// holds the key's group, otherwise the number of distinct-peer forwardings
// a greedy power-of-two routing would take. Each iteration strictly shrinks
// the remaining clockwise distance by at least half, so the walk terminates
// in at most 64 steps plus the final hop to the owner.
func (r *MemberRing) RouteHops(from string, key Key) int {
	if len(r.vnodes) == 0 {
		return 0
	}
	if _, ok := r.members[from]; !ok {
		// A non-member origin (external client) reaches the primary in one
		// logical hop: it dials Group[0] directly.
		return 1
	}
	group := r.Group(key)
	cur := uint64(HashString(from + "#0"))
	curAddr := from
	target := uint64(key)
	hops := 0
	for iter := 0; iter < 96; iter++ {
		if slices.Contains(group, curAddr) {
			return hops
		}
		want := target - cur
		if want == 0 {
			want = 1
		}
		j := bits.Len64(want) - 1
		v := r.vnodes[r.successor(Key(cur+uint64(1)<<j))]
		if v.addr != curAddr {
			hops++
		}
		cur = uint64(v.pos)
		curAddr = v.addr
	}
	return hops
}

// Arc is the clockwise key interval (Lo, Hi]: Lo excluded, Hi included,
// wrapping through the top of the key space when Hi < Lo.
type Arc struct {
	Lo, Hi Key
}

// Contains reports whether k lies in the arc.
func (a Arc) Contains(k Key) bool {
	d := uint64(k) - uint64(a.Lo)
	return d != 0 && d <= uint64(a.Hi)-uint64(a.Lo)
}

// ArcSet is a union of arcs, with All short-circuiting to the whole key
// space (the conservative answer when a change touches everything — tiny
// clusters).
type ArcSet struct {
	All  bool
	Arcs []Arc
}

// Contains reports whether k lies in any arc of the set.
func (s ArcSet) Contains(k Key) bool {
	if s.All {
		return true
	}
	for _, a := range s.Arcs {
		if a.Contains(k) {
			return true
		}
	}
	return false
}

// Everything is the ArcSet covering the whole key space.
func Everything() ArcSet { return ArcSet{All: true} }

// Affected returns the exact set of keys whose replica group includes any
// of the given members on THIS ring: for each vnode p of a changed member,
// the arc (q, p] where q is the position at which a counterclockwise walk
// from p has seen repl distinct members other than the changed one. A key
// outside the returned set provably has the changed member outside its
// replica group here, so a transition that removes (or, evaluated on the
// new ring, adds) these members cannot alter that key's group — the
// property node handoff planning relies on, pinned by
// TestAffectedArcsCoverGroupChanges.
//
// Call it on the old ring for leavers and on the new ring for joiners;
// union the results. If the ring has at most repl distinct other members
// the walk wraps and the whole key space is affected (All=true).
func (r *MemberRing) Affected(changed []string) ArcSet {
	var out ArcSet
	seen := make(map[string]struct{}, len(changed))
	for _, addr := range changed {
		if _, ok := r.members[addr]; !ok {
			continue
		}
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		for _, vn := range memberVnodes(addr) {
			lo, all := r.replPredecessor(vn.pos, addr)
			if all {
				return Everything()
			}
			out.Arcs = append(out.Arcs, Arc{Lo: lo, Hi: vn.pos})
		}
	}
	return out
}

// replPredecessor walks counterclockwise from the vnode at pos (owned by
// addr) until it has passed repl distinct members other than addr, and
// returns the position where the count was reached. all=true means the
// walk wrapped without finding repl distinct others — the arc is the whole
// ring.
func (r *MemberRing) replPredecessor(pos Key, addr string) (lo Key, all bool) {
	i := sort.Search(len(r.vnodes), func(i int) bool {
		if r.vnodes[i].pos != pos {
			return r.vnodes[i].pos > pos
		}
		return r.vnodes[i].addr >= addr
	})
	others := make(map[string]struct{}, r.repl)
	for steps := 0; steps < len(r.vnodes); steps++ {
		i--
		if i < 0 {
			i = len(r.vnodes) - 1
		}
		v := r.vnodes[i]
		if v.addr == addr {
			continue
		}
		others[v.addr] = struct{}{}
		if len(others) >= r.repl {
			return v.pos, false
		}
	}
	return 0, true
}
