package overlay

import (
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// FloodResult reports the outcome and cost of one flood.
type FloodResult struct {
	// Reached is the number of distinct online members that processed the
	// query (including the origin).
	Reached int
	// Messages is the number of transmissions, counting the duplicate
	// deliveries that give flooding its dup factor.
	Messages int
	// Found reports whether any reached peer matched.
	Found bool
	// FoundAt is the first matching peer (breadth-first order); only
	// meaningful when Found.
	FoundAt netsim.PeerID
}

// Flood performs a Gnutella-style breadth-first flood from origin with the
// given TTL: every online member that sees the query for the first time
// forwards it to all neighbors except the one it came from, until the TTL
// expires. Every transmission to an online peer is one message of the given
// class; duplicates are delivered (and counted) but not re-forwarded. The
// flood does not stop early on a match — Gnutella queries keep propagating —
// so its cost is independent of where the data sits. A TTL of len(Members())
// floods the whole reachable graph: that is a replica group's gossip, whose
// messages are the repl·dup2 of eq. 9/16. An offline origin, or one that is
// not a member, sends nothing.
//
// match may be nil when the flood is used purely for dissemination.
func (g *Graph) Flood(origin netsim.PeerID, ttl int, match func(netsim.PeerID) bool, class stats.MsgClass) FloodResult {
	res := FloodResult{}
	start, ok := g.at(origin)
	if !ok || !g.net.Online(origin) {
		return res
	}
	g.mark++
	if g.mark == 0 || g.marks == nil { // first flood, or the mark wrapped
		g.marks, g.mark = make([]uint32, len(g.adj)), 1
	}
	g.marks[start] = g.mark
	res.Reached = 1
	if match != nil && match(origin) {
		res.Found, res.FoundAt = true, origin
	}
	frontier := append(g.frontier[:0], start)
	next := g.next[:0]
	for depth := 0; depth < ttl && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, i := range frontier {
			for _, q := range g.adj[i] {
				if !g.net.Online(q) {
					// A connection to an offline peer is
					// already torn down; nothing is sent.
					continue
				}
				res.Messages++
				j, _ := g.at(q)
				if g.marks[j] == g.mark {
					continue // duplicate delivery
				}
				g.marks[j] = g.mark
				res.Reached++
				if match != nil && !res.Found && match(q) {
					res.Found, res.FoundAt = true, q
				}
				next = append(next, j)
			}
		}
		frontier, next = next, frontier
	}
	g.frontier, g.next = frontier, next
	g.net.Send(class, int64(res.Messages))
	return res
}
