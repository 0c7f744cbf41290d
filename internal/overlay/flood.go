package overlay

import (
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// FloodResult reports the outcome and cost of one flood.
type FloodResult struct {
	// Reached is the number of distinct online peers that processed the
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
// given TTL: every online peer that sees the query for the first time
// forwards it to all neighbors except the one it came from, until the TTL
// expires. Every transmission to an online peer is one message of the given
// class; duplicates are delivered (and counted) but not re-forwarded. The
// flood does not stop early on a match — Gnutella queries keep propagating —
// so its cost is independent of where the data sits.
//
// match may be nil when the flood is used purely for dissemination.
func (g *Graph) Flood(origin netsim.PeerID, ttl int, match func(netsim.PeerID) bool, class stats.MsgClass) FloodResult {
	res := FloodResult{}
	if !g.net.Online(origin) {
		return res
	}
	visited := make(map[netsim.PeerID]bool, 64)
	visited[origin] = true
	res.Reached = 1
	if match != nil && match(origin) {
		res.Found, res.FoundAt = true, origin
	}
	frontier := []netsim.PeerID{origin}
	for depth := 0; depth < ttl && len(frontier) > 0; depth++ {
		var next []netsim.PeerID
		for _, p := range frontier {
			for _, q := range g.adj[p] {
				if !g.net.Online(q) {
					// A connection to an offline peer is
					// already torn down; nothing is sent.
					continue
				}
				res.Messages++
				if visited[q] {
					continue // duplicate delivery
				}
				visited[q] = true
				res.Reached++
				if match != nil && !res.Found && match(q) {
					res.Found, res.FoundAt = true, q
				}
				next = append(next, q)
			}
		}
		frontier = next
	}
	g.net.Send(class, int64(res.Messages))
	return res
}
