package node

import (
	"context"

	"pdht/internal/core"
	"pdht/internal/replica"
	"pdht/internal/stats"
	"pdht/internal/store"
	"pdht/internal/transport"
)

// Key handoff and replica repair: when a confirmed membership change moves
// or shrinks a key's replica set, the surviving copies must reach the set's
// new members or the index silently loses first redundancy, then the entry
// itself — the next query pays a broadcast the paper's model doesn't
// predict, and under sustained churn the partial index never reaches its
// steady-state hit rate. The planning rules (designated pusher, orphan
// rescue, TTL preservation, no deletion) live in replica.PlanRepair; this
// file snapshots the cache, feeds the planner, and executes the plan.
//
// Pushes carry ViewHash 0: a repair push is, by definition, a message
// between two sides of a view transition, so the stale-view guard must not
// apply.

// planHandoff computes the pushes this node owes for a view transition:
// the cache snapshot reduced to its live entries (with REMAINING TTLs) and
// handed to the replica repair planner. Pure function of (old view, new
// view, self, cache snapshot).
func planHandoff(old, next *view, self string, entries []core.Entry, now int) []replica.Push {
	held := make([]replica.Entry, 0, len(entries))
	for _, e := range entries {
		if ttl := e.Expires - now; ttl >= 1 {
			held = append(held, replica.Entry{Key: e.Key, Value: uint64(e.Value), TTL: ttl})
		}
	}
	return replica.PlanRepair(old, next, self, held)
}

// runHandoff executes the plan for one view transition. It runs on its own
// goroutine (registered in n.handoffs before spawn): pushes are plain
// inserts with the remaining TTL, so a lost push degrades to the pre-
// handoff behavior — the key's next query misses and re-inserts (or a later
// hit read-repairs it). Every push is bounded by CallTimeout and aborted by
// node shutdown — a destination that blackholes traffic cannot pin the
// pusher goroutine past Close. Pushes are grouped by destination, and a
// destination is abandoned on its first transport failure: a newcomer that
// crashed mid-transition costs one failed call, not one CallTimeout per
// entry it was owed.
func (n *Node) runHandoff(old, next *view, entries []core.Entry) {
	defer n.handoffs.Done()
	// The pushes outlive any request, so the deadline comes from the
	// node's own lifecycle: a context cancelled when n.stop closes, with
	// the engine's call capping each push at CallTimeout on top.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-n.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	plan := planHandoff(old, next, n.cfg.Addr, entries, n.now())
	dests := make([]string, 0, 4)
	byDest := make(map[string][]replica.Push)
	for _, p := range plan {
		if _, seen := byDest[p.To]; !seen {
			dests = append(dests, p.To)
		}
		byDest[p.To] = append(byDest[p.To], p)
	}
	for _, dest := range dests {
		for _, p := range byDest[dest] {
			if ctx.Err() != nil {
				return
			}
			n.m.handoffMsgs.Add(1)
			n.m.addMsgs(stats.MsgControl, 1)
			resp, err := n.call(ctx, p.To, transport.Request{
				Op: transport.OpInsert, Key: uint64(p.Key), Value: p.Value, TTL: p.TTL,
			})
			if err != nil {
				n.m.handoffPushFailed.Add(1)
				break // unreachable; its keys degrade to broadcast-on-miss
			}
			if resp.OK {
				n.m.handoffKeys.Add(1)
				if n.persist != nil {
					// Audit trail only: the holder keeps its copy (the
					// planner's no-deletion rule), so replay ignores these.
					_ = n.persist.Append(store.Record{Op: store.OpHandoff, Key: uint64(p.Key), Value: p.Value})
				}
			} else {
				// The peer answered but refused (full cache, malformed
				// TTL): the push did not land.
				n.m.handoffPushFailed.Add(1)
			}
		}
	}
}
