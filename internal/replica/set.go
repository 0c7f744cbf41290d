package replica

import (
	"context"
	"sync"
	"sync/atomic"

	"pdht/internal/keyspace"
)

// Set is the ordered replica set of one key over live peers: the
// routing-designated primary first, then the backups in the keyspace
// ranking (keyspace.RankClosest over hashed addresses). Reads probe in this
// order and fail over on a miss, refusal or timeout; writes fan out to all
// of it. Because the order is a pure function of (key, member addresses),
// every peer that agrees on the membership list walks the replicas the same
// way — duplicate probes cost nothing extra and no coordination is needed.
type Set struct {
	// Primary is the peer routing designated as responsible for the key —
	// the first probe of a read and the target of read repair. Empty when
	// routing could not resolve one.
	Primary string
	// Backups are the remaining members of the set, closest first in the
	// keyspace ranking.
	Backups []string
}

// NewSet orders a key's replica group into a Set: primary first (promoted
// from the group's ranking when the caller has none), then the other group
// members ranked by clockwise keyspace distance from the key to their
// hashed address. Duplicates in group are dropped.
func NewSet(key keyspace.Key, primary string, group []string) Set {
	s := Set{Primary: primary}
	if len(group) == 0 {
		return s
	}
	seen := make(map[string]bool, len(group)+1)
	seen[primary] = true
	rest := make([]string, 0, len(group))
	points := make([]keyspace.Key, 0, len(group))
	for _, addr := range group {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		rest = append(rest, addr)
		points = append(points, keyspace.HashString(addr))
	}
	s.Backups = make([]string, len(rest))
	for i, idx := range keyspace.RankClosest(key, points) {
		s.Backups[i] = rest[idx]
	}
	if s.Primary == "" && len(s.Backups) > 0 {
		// No routing-designated primary (a client that only knows the
		// group): the ranking's first successor takes the role.
		s.Primary, s.Backups = s.Backups[0], s.Backups[1:]
	}
	return s
}

// All returns the probe/write order: primary first, then the ranked
// backups. The slice is freshly allocated.
func (s Set) All() []string {
	if s.Primary == "" {
		return append([]string(nil), s.Backups...)
	}
	out := make([]string, 0, 1+len(s.Backups))
	out = append(out, s.Primary)
	return append(out, s.Backups...)
}

// Size returns the number of members in the set.
func (s Set) Size() int {
	n := len(s.Backups)
	if s.Primary != "" {
		n++
	}
	return n
}

// Contains reports whether addr is a member of the set.
func (s Set) Contains(addr string) bool {
	if addr == "" {
		return false
	}
	if addr == s.Primary {
		return true
	}
	for _, b := range s.Backups {
		if b == addr {
			return true
		}
	}
	return false
}

// Fanout runs one write leg per address concurrently — the insert and
// reset-on-hit refresh fan-out of the live replica scheme. Each leg
// receives the caller's context (callers derive per-leg deadlines from it,
// e.g. capping at their RPC timeout) and reports success; Fanout returns
// how many legs succeeded. Once ctx is done, remaining legs are not
// started — a cancelled request stops paying for replication it no longer
// needs — but legs already in flight run to their own deadline.
//
// The last leg runs on the calling goroutine: Fanout waits for every leg
// anyway, so a goroutine of its own would buy no overlap, and a fresh
// goroutine's stack grows (runtime.newstack) on its way down into the
// socket write. A single-member set therefore spawns nothing.
func Fanout(ctx context.Context, addrs []string, leg func(ctx context.Context, addr string) bool) int {
	var ok atomic.Int32
	var wg sync.WaitGroup
	run := func(addr string) {
		if leg(ctx, addr) {
			ok.Add(1)
		}
	}
	for i, addr := range addrs {
		if ctx.Err() != nil {
			break
		}
		if i == len(addrs)-1 {
			run(addr)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(addr)
		}()
	}
	wg.Wait()
	return int(ok.Load())
}
