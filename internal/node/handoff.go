package node

import (
	"slices"

	"pdht/internal/core"
	"pdht/internal/stats"
	"pdht/internal/transport"
)

// Key handoff and replica repair: when a confirmed membership change moves
// or shrinks a key's replica set, the surviving copies must reach the set's
// new members or the index silently loses redundancy — first the
// availability margin, then (when the last holder churns out) the entry
// itself, and the next query pays a broadcast the paper's model doesn't
// predict. DistHash-style active re-replication is the fix: walk the local
// cache, recompute placement under the new view, and push what the new set
// is missing.
//
// Invariants:
//
//   - Exactly-once planning, at-least-once effect: for each entry, the
//     FIRST member of the old replica set that survived into the new view
//     is the designated pusher. Every survivor evaluates the same
//     deterministic rule against the same (old, new) view pair, so in the
//     converged case one node pushes and the rest stay silent; while views
//     are still settling, duplicate pushes are possible and harmless
//     (inserts are idempotent, latest-expiry wins).
//   - Orphan rescue: when NO member of the old set survived, any node still
//     holding a copy — typically from an even older view, kept by the
//     no-deletion rule below — pushes it to the entire new set. Without
//     this the "whole set died with the data" case is unrecoverable even
//     while a live copy exists.
//   - TTL preservation: entries travel with their REMAINING lifetime
//     (expires − now, in rounds), not a fresh keyTtl. A key that was about
//     to lapse still lapses on schedule at its new owner — the expiry
//     semantics of §5.1 are membership-change invariant. Every push of a
//     transition goes out in one round, so each lands one round trip after
//     its TTL was read.
//   - No deletion: the holder keeps its copy even when it left the set.
//     It stops being probed under the new view, so it simply expires on
//     schedule; dropping it early would lose data if the view flaps back.
//
// Pushes carry ViewHash 0: a repair push is, by definition, a message
// between two sides of a view transition, so the stale-view guard must not
// apply.

// planPushes computes the pushes self owes for the view transition
// old→next, given the entries self holds: entries[i] goes to addrs[j] for
// every i in idxs[j] of the result. Entries with less than one round left
// at now are skipped. Pure function of its inputs — every surviving member
// of an entry's old set computes the same plan and the designated-pusher
// rule leaves at most one of them responsible; the orphan-rescue rule adds
// a pusher only when that leaves nobody.
func planPushes(old, next *view, self string, entries []core.Entry, now int) destinations {
	var plan destinations
	var oldBuf, nextBuf [replBuf]string
	for i, e := range entries {
		if e.Expires-now < 1 {
			continue
		}
		oldSet := old.Replicas(e.Key, oldBuf[:0]...)
		pusher := ""
		for _, a := range oldSet {
			if next.Contains(a) {
				pusher = a
				break
			}
		}
		if pusher == "" {
			// The whole old set is gone, but self still holds a copy (the
			// no-deletion rule keeps entries through set changes): rescue
			// it into the current set.
			for _, a := range next.Replicas(e.Key, nextBuf[:0]...) {
				if a != self {
					plan.add(a, i)
				}
			}
			continue
		}
		if pusher != self {
			// Another survivor owns the push, or self holds a copy from an
			// even older view — the current set members handle those keys.
			continue
		}
		for _, a := range next.Replicas(e.Key, nextBuf[:0]...) {
			if a != self && !slices.Contains(oldSet, a) {
				plan.add(a, i)
			}
		}
	}
	return plan
}

// runHandoff carries out the plan for one view transition. It runs on its
// own goroutine (registered in n.handoffs before spawn) and sends the whole
// plan as one round of inserts, one request per destination (batchLegs),
// each entry with its remaining TTL. A lost push degrades to the pre-handoff
// behavior — the key's next query misses and re-inserts (or a later hit
// read-repairs it). The round is bounded by CallTimeout and aborted by
// Close, so a destination that blackholes traffic cannot pin the pusher
// past shutdown, and a newcomer that crashed mid-transition costs one
// failed leg.
//
// handoffMsgs counts pushed entries, each landed (handoffKeys) or failed
// (handoffPushFailed); the control message class counts the frames.
func (n *Node) runHandoff(old, next *view, entries []core.Entry) {
	defer n.handoffs.Done()
	now := n.now()
	plan := planPushes(old, next, n.cfg.Addr, entries, now)
	legs := n.batchLegs(nil, 0, &plan, func(i int) transport.BatchItem { return pushItem(entries[i], now) })
	n.m.addMsgs(stats.MsgControl, n.round(n.lifetime, legs))
	for j := range legs {
		l := &legs[j]
		if !l.wire {
			continue // not sent: Close came first
		}
		n.m.handoffMsgs.Add(uint64(len(plan.idxs[j])))
		ok, _ := n.usable(n.lifetime, l)
		for k := range plan.idxs[j] {
			// A failed leg, or a peer that refused the item (full cache,
			// malformed TTL): the push did not land.
			if !ok || !itemResult(l, k).OK {
				n.m.handoffPushFailed.Add(1)
				continue
			}
			n.m.handoffKeys.Add(1)
		}
	}
}

// pushItem is the insert that hands e over at round now: its value with its
// remaining lifetime.
func pushItem(e core.Entry, now int) transport.BatchItem {
	return transport.BatchItem{Op: transport.OpInsert, Key: uint64(e.Key), Value: uint64(e.Value), TTL: e.Expires - now}
}
