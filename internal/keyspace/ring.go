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
// The ring answers two questions for the live node layer:
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
	members []string    // sorted, duplicate-free
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

// sortedSet returns addrs sorted and without repeats: addrs itself when it
// already is (the node's deltas are), a fresh copy otherwise.
func sortedSet(addrs []string) []string {
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] < addrs[i] {
			continue
		}
		out := slices.Clone(addrs)
		slices.Sort(out)
		uniq := out[:0]
		for _, a := range out {
			if len(uniq) == 0 || a != uniq[len(uniq)-1] {
				uniq = append(uniq, a)
			}
		}
		return uniq
	}
	return addrs
}

// NewMemberRing builds a ring from scratch over the given members (order
// irrelevant, duplicates ignored; the slice is not retained). repl is the
// replica-group size Group targets; it is clamped to the member count at
// query time, so a ring can be built before the cluster has grown past
// repl members.
func NewMemberRing(members []string, repl int) *MemberRing {
	if repl < 1 {
		repl = 1
	}
	r := &MemberRing{
		vnodes:  make([]ringVnode, 0, len(members)*RingVnodes),
		members: slices.Clip(slices.Clone(sortedSet(members))),
		repl:    repl,
	}
	for _, m := range r.members {
		r.vnodes = append(r.vnodes, memberVnodes(m)...)
	}
	sortVnodes(r.vnodes)
	return r
}

// Members returns the ring's members, sorted and duplicate-free. The slice
// is the ring's own: callers read it and never write it.
func (r *MemberRing) Members() []string { return r.members }

// Size returns the number of members on the ring.
func (r *MemberRing) Size() int { return len(r.members) }

// Repl returns the replica-group size Group targets (before clamping).
func (r *MemberRing) Repl() int { return r.repl }

// Contains reports whether addr is a ring member.
func (r *MemberRing) Contains(addr string) bool {
	_, ok := slices.BinarySearch(r.members, addr)
	return ok
}

// Apply returns a new ring with joined added and left removed. Only the
// changed members' vnodes are hashed — the joiners' to insert, the
// leavers' to find by binary search — and everything else is one merge
// pass over the old sorted member list and a copy of the old vnode array
// in runs between the changes: O(n + changed·log n) with small constants,
// versus the full rebuild's O(n·v) hashing + O(n·v log n·v) sort. Joins
// already present and leaves not present are ignored.
func (r *MemberRing) Apply(joined, left []string) *MemberRing {
	joined, left = sortedSet(joined), sortedSet(left)
	next := &MemberRing{
		members: make([]string, 0, len(r.members)+len(joined)),
		repl:    r.repl,
	}
	var add []ringVnode
	var drop []int // indices of the leavers' vnodes in r.vnodes
	i, l := 0, 0
	for _, m := range r.members {
		for ; i < len(joined) && joined[i] < m; i++ {
			next.members = append(next.members, joined[i])
			add = append(add, memberVnodes(joined[i])...)
		}
		if i < len(joined) && joined[i] == m {
			i++ // already a member
		}
		for l < len(left) && left[l] < m {
			l++
		}
		if l < len(left) && left[l] == m {
			for _, v := range memberVnodes(m) {
				drop = append(drop, r.vnodeIndex(v))
			}
			continue
		}
		next.members = append(next.members, m)
	}
	for _, a := range joined[i:] {
		next.members = append(next.members, a)
		add = append(add, memberVnodes(a)...)
	}
	next.members = slices.Clip(next.members)
	sortVnodes(add)
	slices.Sort(drop)

	// Copy the old vnode array in runs: up to each addition's place,
	// skipping the leavers' vnodes.
	next.vnodes = make([]ringVnode, 0, len(next.members)*RingVnodes)
	keep := func(from, to int) {
		for ; len(drop) > 0 && drop[0] < to; drop = drop[1:] {
			next.vnodes = append(next.vnodes, r.vnodes[from:drop[0]]...)
			from = drop[0] + 1
		}
		next.vnodes = append(next.vnodes, r.vnodes[from:to]...)
	}
	from := 0
	for _, v := range add {
		k := r.vnodeIndex(v)
		keep(from, k)
		next.vnodes = append(next.vnodes, v)
		from = k
	}
	keep(from, len(r.vnodes))
	return next
}

// vnodeIndex returns the index of the vnode v in the sorted vnode array,
// or of the first vnode after it when v is not on the ring.
func (r *MemberRing) vnodeIndex(v ringVnode) int {
	return sort.Search(len(r.vnodes), func(i int) bool {
		if r.vnodes[i].pos != v.pos {
			return r.vnodes[i].pos > v.pos
		}
		return r.vnodes[i].addr >= v.addr
	})
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

// Group appends the replica group of key to dst and returns the extended
// slice: the first min(repl, Size) distinct members encountered walking
// clockwise from key, the route primary first. A caller with a buffer
// passes it as Group(key, buf[:0]...) and the group lands in it without a
// heap allocation; Group(key) returns a fresh slice. An empty ring appends
// nothing.
func (r *MemberRing) Group(key Key, dst ...string) []string {
	n := len(r.members)
	if n == 0 {
		return dst
	}
	want := min(r.repl, n)
	dst = slices.Grow(dst, want)
	group := len(dst)
	for i := r.successor(key); len(dst)-group < want; {
		v := r.vnodes[i]
		if !slices.Contains(dst[group:], v.addr) {
			dst = append(dst, v.addr)
		}
		i++
		if i == len(r.vnodes) {
			i = 0
		}
	}
	return dst
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
	if !r.Contains(from) {
		// A non-member origin (external client) reaches the primary in one
		// logical hop: it dials Group[0] directly.
		return 1
	}
	group := r.Group(key, make([]string, 0, 8)...) // on the stack up to repl 8
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
