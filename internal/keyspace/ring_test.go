package keyspace

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func ringAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)
	}
	return out
}

// A ring is a pure function of its member set: construction order must not
// matter, and delta application must land on the exact ring a full rebuild
// of the final set produces — the property that lets a thousand nodes
// apply deltas independently and still agree on placement.
func TestMemberRingDeltaEqualsRebuild(t *testing.T) {
	addrs := ringAddrs(64)
	rng := rand.New(rand.NewPCG(7, 11))

	base := NewMemberRing(addrs[:48], 3)
	backwards := append([]string(nil), addrs[:48]...)
	rng.Shuffle(len(backwards), func(i, j int) { backwards[i], backwards[j] = backwards[j], backwards[i] })
	if !reflect.DeepEqual(base.vnodes, NewMemberRing(backwards, 3).vnodes) {
		t.Fatal("construction order changed the ring")
	}

	joined := addrs[48:56]
	left := addrs[:5]
	next := base.Apply(joined, left)

	want := make([]string, 0, 51)
	want = append(want, addrs[5:48]...)
	want = append(want, joined...)
	rebuilt := NewMemberRing(want, 3)
	if !reflect.DeepEqual(next.vnodes, rebuilt.vnodes) {
		t.Fatal("Apply(joined, left) diverged from full rebuild of the same set")
	}
	if next.Size() != 51 {
		t.Fatalf("Size = %d, want 51", next.Size())
	}
	// The base ring must be untouched (views are immutable snapshots).
	if base.Size() != 48 || !base.Contains(addrs[0]) {
		t.Fatal("Apply mutated the receiver")
	}

	// Redundant joins and leaves are ignored.
	same := next.Apply([]string{addrs[50]}, []string{"never-joined:1"})
	if !reflect.DeepEqual(same.vnodes, next.vnodes) {
		t.Fatal("redundant delta changed the ring")
	}
}

func TestMemberRingGroup(t *testing.T) {
	addrs := ringAddrs(20)
	r := NewMemberRing(addrs, 3)
	reversed := append([]string(nil), addrs...)
	slices.Reverse(reversed)
	backwards := NewMemberRing(reversed, 3)
	for i := 0; i < 200; i++ {
		k := Key(mix64(uint64(i) * 0x9e3779b97f4a7c15))
		g := r.Group(k)
		if len(g) != 3 {
			t.Fatalf("group size %d, want 3", len(g))
		}
		seen := map[string]bool{}
		for _, a := range g {
			if seen[a] {
				t.Fatalf("duplicate member %s in group", a)
			}
			seen[a] = true
		}
		// The order is the clockwise walk — members by the distance from
		// the key to their nearest vnode — whatever order the member list
		// arrived in: it is the failover order every peer must agree on.
		dist := func(a string) uint64 {
			best := ^uint64(0)
			for _, vn := range memberVnodes(a) {
				if d := uint64(vn.pos) - uint64(k); d < best {
					best = d
				}
			}
			return best
		}
		walk := append([]string(nil), addrs...)
		sort.Slice(walk, func(x, y int) bool { return dist(walk[x]) < dist(walk[y]) })
		if !reflect.DeepEqual(g, walk[:3]) || !reflect.DeepEqual(g, backwards.Group(k)) {
			t.Fatalf("key %d: group %v, clockwise walk %v, ring built from the reversed list %v", k, g, walk[:3], backwards.Group(k))
		}
	}
	// Tiny cluster: group clamps to the member count.
	small := NewMemberRing(addrs[:2], 3)
	if g := small.Group(42); len(g) != 2 {
		t.Fatalf("clamped group size %d, want 2", len(g))
	}
	// Growth past repl un-clamps.
	if g := small.Apply(addrs[2:8], nil).Group(42); len(g) != 3 {
		t.Fatalf("post-growth group size %d, want 3", len(g))
	}
}

func TestMemberRingRouteHops(t *testing.T) {
	addrs := ringAddrs(256)
	r := NewMemberRing(addrs, 3)
	rng := rand.New(rand.NewPCG(3, 5))
	maxHops := 0
	for i := 0; i < 500; i++ {
		from := addrs[rng.IntN(len(addrs))]
		k := Key(rng.Uint64())
		h := r.RouteHops(from, k)
		if h < 0 || h > 96 {
			t.Fatalf("hops %d out of range", h)
		}
		if h > maxHops {
			maxHops = h
		}
		if slices.Contains(r.Group(k), from) && h != 0 {
			t.Fatalf("origin in group but hops = %d", h)
		}
	}
	// An ideal-finger walk over 1024 vnodes should stay well under the
	// 64-step worst case — log₂(vnodes) ≈ 10 plus the terminal hop.
	if maxHops == 0 || maxHops > 16 {
		t.Fatalf("max hops %d implausible for 256 members", maxHops)
	}
	// Non-member origins dial the primary directly.
	if h := r.RouteHops("outsider:1", 42); h != 1 {
		t.Fatalf("outsider hops = %d, want 1", h)
	}
}

func TestMemberRingSortedMergeKeepsOrder(t *testing.T) {
	addrs := ringAddrs(200)
	r := NewMemberRing(addrs[:100], 3)
	for i := 100; i < 200; i += 7 {
		hi := i + 7
		if hi > 200 {
			hi = 200
		}
		r = r.Apply(addrs[i:hi], addrs[i-100:i-93])
	}
	if !sort.SliceIsSorted(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].pos != r.vnodes[b].pos {
			return r.vnodes[a].pos < r.vnodes[b].pos
		}
		return r.vnodes[a].addr < r.vnodes[b].addr
	}) {
		t.Fatal("vnode array lost sort order across deltas")
	}
}

// Apply must land on the rebuild of the final set for any delta: hundreds
// of joins and leaves at once (a healed partition), repeats, leaves of
// non-members and joins of members.
func TestMemberRingLargeDeltaEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	for trial := 0; trial < 200; trial++ {
		addrs := ringAddrs(2 + rng.IntN(400))
		old := map[string]bool{}
		for _, a := range addrs[:rng.IntN(len(addrs))] {
			old[a] = true
		}
		want := maps.Clone(old)
		var joined, left []string
		for k := rng.IntN(300); k > 0; k-- {
			if a := addrs[rng.IntN(len(addrs))]; rng.IntN(2) == 0 {
				joined = append(joined, a)
			} else {
				left = append(left, a)
			}
		}
		for _, a := range left {
			delete(want, a)
		}
		for _, a := range joined {
			if !old[a] {
				want[a] = true // a join beats a leave of a non-member
			}
		}
		next := NewMemberRing(slices.Collect(maps.Keys(old)), 3).Apply(joined, left)
		rebuilt := NewMemberRing(slices.Collect(maps.Keys(want)), 3)
		if !slices.Equal(next.Members(), rebuilt.Members()) || !slices.Equal(next.vnodes, rebuilt.vnodes) {
			t.Fatalf("trial %d: Apply of %d joins and %d leaves diverged from the rebuild", trial, len(joined), len(left))
		}
	}
}
