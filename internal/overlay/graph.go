// Package overlay implements the unstructured peer-to-peer network of the
// paper's model: a Gnutella-like random topology in which "each peer has a
// few open connections to other peers" (§3.1), searched either by flooding
// or — as the paper assumes for its cost model — by multiple random walks
// [LvCa02]. Content is replicated at random peers with a given factor, and
// search cost is measured in messages, including the duplicates the
// topology inflicts (the paper's dup factor). Graph is the topology, over
// the whole network or over one replica group; Store holds the replicated
// content the searches look for.
package overlay

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/netsim"
)

// Graph is an undirected random overlay over a set of a network's peers:
// every peer, for the unstructured search, or one replica group, for the
// replica subnetwork its members gossip over (§3.3.2, [DaHa03]). Edges are
// static for the lifetime of the graph (Gnutella connections are long-
// lived relative to queries); liveness is consulted per operation through
// the network.
type Graph struct {
	net     *netsim.Network
	members []netsim.PeerID
	// pos maps a member to its position in members. It is nil when the
	// members are 0, 1, …, n−1, as for the whole network: a peer's ID is
	// then its position, and the random walks need no lookup.
	pos map[netsim.PeerID]int
	adj [][]netsim.PeerID // by position
	// Flood's scratch, reused across calls (the simulator is
	// single-threaded): a position is visited in the current flood when
	// its mark equals mark, and the two frontier buffers swap per depth.
	marks          []uint32
	mark           uint32
	frontier, next []int
}

// NewRandomGraph builds a random overlay over members in which every
// member opens `degree` connections to distinct uniformly random other
// members; since connections are symmetric, the mean total degree is about
// twice that, and a flood duplicates with factor ≈ 2·degree−1 (degree 1
// gives a replica group the paper's dup2 = 1.8). members must be distinct
// and non-empty; degree must be at least 1 and is clamped to len(members)−1,
// so a single member is a graph without edges.
func NewRandomGraph(net *netsim.Network, members []netsim.PeerID, degree int, rng *rand.Rand) (*Graph, error) {
	n := len(members)
	if n < 1 {
		return nil, fmt.Errorf("overlay: graph needs at least one member")
	}
	if degree < 1 {
		return nil, fmt.Errorf("overlay: degree %d must be positive", degree)
	}
	degree = min(degree, n-1)
	g := &Graph{
		net:     net,
		members: append([]netsim.PeerID(nil), members...),
		adj:     make([][]netsim.PeerID, n),
	}
	for i, p := range members {
		if p != netsim.PeerID(i) {
			g.pos = make(map[netsim.PeerID]int, n)
			break
		}
	}
	if g.pos != nil {
		for i, p := range members {
			if _, dup := g.pos[p]; dup {
				return nil, fmt.Errorf("overlay: duplicate member %d", p)
			}
			g.pos[p] = i
		}
	}
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = make(map[int]bool, 2*degree)
	}
	for i := 0; i < n; i++ {
		for opened := 0; opened < degree; {
			j := rng.IntN(n)
			if j == i || seen[i][j] {
				// Resample: duplicate edges would distort the
				// dup factor. With degree ≪ n this terminates
				// quickly; a member that incoming edges already
				// joined to everyone stops.
				if len(seen[i]) >= n-1 {
					break
				}
				continue
			}
			seen[i][j] = true
			seen[j][i] = true
			g.adj[i] = append(g.adj[i], members[j])
			g.adj[j] = append(g.adj[j], members[i])
			opened++
		}
	}
	return g, nil
}

// at returns p's position among the members, or ok=false for a peer that
// is not one.
func (g *Graph) at(p netsim.PeerID) (int, bool) {
	if g.pos == nil {
		return int(p), p >= 0 && int(p) < len(g.adj)
	}
	i, ok := g.pos[p]
	return i, ok
}

// Members returns the graph's peers (online or not). The slice is owned by
// the graph; callers must not mutate it.
func (g *Graph) Members() []netsim.PeerID { return g.members }

// Net returns the underlying network.
func (g *Graph) Net() *netsim.Network { return g.net }

// Neighbors returns p's adjacency list (online or not), nil for a peer that
// is not a member. The slice is owned by the graph; callers must not mutate
// it.
func (g *Graph) Neighbors(p netsim.PeerID) []netsim.PeerID {
	i, ok := g.at(p)
	if !ok {
		return nil
	}
	return g.adj[i]
}

// Degree returns the number of connections of p.
func (g *Graph) Degree(p netsim.PeerID) int { return len(g.Neighbors(p)) }

// MeanDegree returns the average degree across all members.
func (g *Graph) MeanDegree() float64 {
	var total int
	for _, a := range g.adj {
		total += len(a)
	}
	return float64(total) / float64(len(g.adj))
}

// onlineNeighbor returns a uniformly random online neighbor of p other than
// exclude, or ok=false if there is none. exclude < 0 excludes nobody.
func (g *Graph) onlineNeighbor(p netsim.PeerID, exclude netsim.PeerID, rng *rand.Rand) (netsim.PeerID, bool) {
	adj := g.Neighbors(p)
	// Reservoir-style single pass keeps this allocation-free on the hot
	// path (every random-walk step calls it).
	var pick netsim.PeerID
	count := 0
	for _, q := range adj {
		if q == exclude || !g.net.Online(q) {
			continue
		}
		count++
		if rng.IntN(count) == 0 {
			pick = q
		}
	}
	if count == 0 {
		return 0, false
	}
	return pick, true
}
