// Package node is the live peer: the paper's selection algorithm
// (StrategyPartialTTL — query the index, broadcast on a miss, insert the
// result with keyTtl, refresh on a hit) executed over a real transport
// instead of simulated rounds. The algorithm exists once, in the unexported
// engine (engine.go): Node is the engine plus the serving state of a
// cluster member, RemoteClient the engine plus the view re-sync of a
// non-serving client behind the public client package, and Cluster the one
// multi-node harness — wave boot, parallel close, kill/restart, and the one
// definition of converged (every live view hashes the live set) — that the
// node tests, the chaos fleet and bench/ all boot through.
//
// Each Node serves the RPCs of internal/transport (Query/Insert/Refresh/
// Broadcast/Gossip/Batch/TopK/Stats), keeps a TTL index cache (core.Cache)
// for the key range it is responsible for, a local content store standing
// in for the unstructured network's content, and a membership view that
// decides responsibility and replica placement — an incremental
// consistent-hash ring (keyspace.MemberRing). The simulator runs the same
// selection algorithm over a P-Grid-style trie (internal/dht): two routing
// geometries, one algorithm, which is the paper's DHT-genericity claim.
//
// Every index entry lives at an r-member replica set: the first r distinct
// members clockwise from the key on the ring (view.Replicas), the first of
// them the primary. Inserts fan out to the whole set in one round; a read
// asks the whole set in one round too — a probe at the primary that resets
// the TTL on a hit, a refresh at each backup whose reply says whether it
// holds the entry — falls back to the first backup holding it before any
// broadcast, and read-repairs set members that answered without holding
// the entry. Config.Repl sizes the set.
//
// Membership is owned by internal/gossip (SWIM: probing, suspicion,
// incarnations, anti-entropy). Every confirmed change produces a new view
// at a new version by DELTA application (only the changed members' virtual
// nodes are spliced), and a repair pass (handoff.go) walks the index
// entries the node holds and pushes each one whose replica set moved to
// the set's new members with its remaining TTL, one batched round per
// transition, so the paper's expiry semantics survive the transfer.
//
// Rounds: the paper's clock unit (one round = one second) maps to a
// configurable RoundDuration. TTLs cross the wire in rounds, so a cluster
// agrees on expiry behavior as long as its nodes share a RoundDuration —
// tests shrink it to milliseconds to exercise expiry quickly.
package node

import (
	"hash/fnv"
	"strings"

	"pdht/internal/keyspace"
)

// view is a node's local instance of the membership-derived routing state.
//
// It wraps a keyspace.MemberRing: virtual-node positions are pure hashes of
// member ADDRESSES, so a member's placement never depends on the rest of
// the list and a delta (the usual case: one join or one confirmed death out
// of a thousand members) is applied by splicing a handful of vnodes —
// O(changed) hashing plus one merge pass — instead of an O(n) rebuild per
// membership event.
//
// THE RANK-SHIFT HAZARD (why agreement still needs a guard): placement
// agreement holds only while two nodes' membership lists are
// byte-identical. During churn, views transition at different instants on
// different nodes, and two nodes whose lists differ by one member disagree
// on the replica group of many keys (TestRankShiftDisagreement
// demonstrates it). The silent failure mode would be a probe answered by a
// peer that computed a different group — a false miss that costs a
// broadcast, or an insert parked on a peer nobody else will ever probe.
// The guard is hash: every view carries the fnv64a of its membership list,
// routed RPCs (query/insert/refresh) carry the sender's hash, and a
// receiver whose hash differs refuses with transport.StaleView plus its
// gossip state — turning silent mis-routing into an explicit,
// convergence-accelerating error the caller treats as a miss.
//
// Routing happens locally — the view computes the replica group and
// reports the hop count an ideal overlay lookup would have cost (the
// measured cSIndx of eq. 7) — and only the terminal RPC to the responsible
// peer crosses the wire. This is the standard client-side-routing
// compromise: full iterative routing would make every hop a real message
// without changing which peer answers.
//
// A view is immutable once installed (version is fixed before it is
// published); concurrent readers — in-flight queries, handoff pushers,
// report snapshots — share it freely, without a lock.
type view struct {
	// members is the ring's own sorted member list (includes self on a
	// member): one list per view, read and never written.
	members []string
	repl    int // effective replication (clamped to cluster size)
	// hash fingerprints the membership list — equal hashes mean equal
	// lists mean identical replica-group arithmetic on both ends.
	hash uint64
	// version is the gossip view version this view was built from,
	// monotonically increasing; stale OnChange notifications (delivered
	// out of order under concurrency) are discarded by comparing it.
	version uint64

	ring *keyspace.MemberRing // the incremental overlay
}

// viewSeed fingerprints a sorted membership list.
func viewSeed(members []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(members, "\n")))
	return h.Sum64()
}

// newView wraps ring as the view at version. The ring keeps the UNclamped
// repl target so growth past repl members un-clamps naturally on delta
// application; the view's repl is clamped to the cluster size — a 2-node
// cluster cannot hold 3 replicas.
func newView(ring *keyspace.MemberRing, version uint64) *view {
	members := ring.Members()
	return &view{
		members: members,
		repl:    min(ring.Repl(), len(members)),
		hash:    viewSeed(members),
		version: version,
		ring:    ring,
	}
}

// buildView constructs routing state over members (any order) from
// scratch.
func buildView(members []string, repl int) *view {
	return newView(keyspace.NewMemberRing(members, repl), 0)
}

// applyDelta derives the successor view from this one by splicing a
// membership delta — the incremental path that replaced the full rebuild
// per membership event. joined/left are the set differences versus
// v.members.
func (v *view) applyDelta(joined, left []string, version uint64) *view {
	return newView(v.ring.Apply(joined, left), version)
}

// diffSorted returns the set differences between two sorted string slices:
// joined = in next but not prev, left = in prev but not next.
func diffSorted(prev, next []string) (joined, left []string) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			left = append(left, prev[i])
			i++
		default:
			joined = append(joined, next[j])
			j++
		}
	}
	left = append(left, prev[i:]...)
	joined = append(joined, next[j:]...)
	return joined, left
}

// hops prices reaching key's primary from self: the overlay hop count of an
// ideal lookup when self is a member (0 when it already sits in key's
// group), one message — the dial to the primary — when it is not (self ==
// "", a non-serving client).
func (v *view) hops(self string, key keyspace.Key) int { return v.ring.RouteHops(self, key) }

// Replicas returns key's replica set in the ring's clockwise walk order:
// the responsible peer first, then the backups in the order reads fail over
// through them. It is the one placement answer of the live node — probes,
// write fan-outs, handoff's designated-pusher rule (planPushes) and the
// chaos placement audit all use this order, identical on every member and
// client that agrees on the membership list. The set is appended to dst,
// as keyspace.MemberRing.Group does: Replicas(key, buf[:0]...) fills a
// caller's buffer, Replicas(key) allocates a fresh slice.
func (v *view) Replicas(key keyspace.Key, dst ...string) []string { return v.ring.Group(key, dst...) }

// Contains reports whether addr is a member of this view.
func (v *view) Contains(addr string) bool { return v.ring.Contains(addr) }
