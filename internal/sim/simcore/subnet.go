package simcore

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// Subnet is the unstructured gossip graph among one replica group's
// members (§3.3.2, [DaHa03]): the peers responsible for a key maintain "an
// unstructured replica subnetwork among each other"; an update reaches one
// responsible peer through the index and is then gossiped to the others,
// costing repl·dup2 messages. The same subnetwork carries the query floods
// of the selection algorithm (eq. 16): a responsible peer that cannot
// answer a query floods its replica group, because TTL expiry leaves
// replicas poorly synchronized. Adjacency is by member index, so a subnet
// costs O(members) regardless of the network size.
type Subnet struct {
	net     *netsim.Network
	members []netsim.PeerID
	index   map[netsim.PeerID]int
	adj     [][]int // member index → neighbor member indices
}

// FloodStats reports one gossip flood.
type FloodStats struct {
	// Messages is the number of transmissions (class is the caller's
	// choice), duplicates included — the repl·dup2 of eq. 9/16.
	Messages int
	// Reached is the number of distinct online members that saw the
	// rumor, including the origin.
	Reached int
	// Found/FoundAt report the first member matching the optional
	// predicate.
	Found   bool
	FoundAt netsim.PeerID
}

// NewSubnet builds a gossip graph among members in which every member opens
// `degree` connections (symmetric, so mean degree ≈ 2·degree — a flood then
// duplicates with factor ≈ 2·degree−1; degree 1–2 matches the paper's
// dup2 = 1.8). members must be distinct.
func NewSubnet(net *netsim.Network, members []netsim.PeerID, degree int, rng *rand.Rand) (*Subnet, error) {
	n := len(members)
	if n < 1 {
		return nil, fmt.Errorf("simcore: subnet needs at least one member")
	}
	if degree < 1 && n > 1 {
		return nil, fmt.Errorf("simcore: degree %d must be positive", degree)
	}
	if degree >= n && n > 1 {
		degree = n - 1
	}
	s := &Subnet{
		net:     net,
		members: append([]netsim.PeerID(nil), members...),
		index:   make(map[netsim.PeerID]int, n),
		adj:     make([][]int, n),
	}
	for i, p := range s.members {
		if _, dup := s.index[p]; dup {
			return nil, fmt.Errorf("simcore: duplicate member %d", p)
		}
		s.index[p] = i
	}
	if n == 1 {
		return s, nil
	}
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = make(map[int]bool, 2*degree)
	}
	for i := 0; i < n; i++ {
		for opened := 0; opened < degree; {
			j := rng.IntN(n)
			if j == i || seen[i][j] {
				if len(seen[i]) >= n-1 {
					break // fully connected already
				}
				continue
			}
			seen[i][j] = true
			seen[j][i] = true
			s.adj[i] = append(s.adj[i], j)
			s.adj[j] = append(s.adj[j], i)
			opened++
		}
	}
	return s, nil
}

// Members returns the group members (online or not). The slice is owned by
// the subnet.
func (s *Subnet) Members() []netsim.PeerID { return s.members }

// Flood gossips a rumor from the given member through all online members:
// every member forwards to all its subnet neighbors except the sender,
// duplicates delivered and counted. match may be nil. Messages are recorded
// under the given class (stats.MsgReplicaFlood for query floods,
// stats.MsgUpdate for update propagation).
func (s *Subnet) Flood(from netsim.PeerID, match func(netsim.PeerID) bool, class stats.MsgClass) FloodStats {
	res := FloodStats{}
	start, ok := s.index[from]
	if !ok || !s.net.Online(from) {
		return res
	}
	visited := make([]bool, len(s.members))
	visited[start] = true
	res.Reached = 1
	if match != nil && match(from) {
		res.Found, res.FoundAt = true, from
	}
	frontier := []int{start}
	for len(frontier) > 0 {
		var next []int
		for _, i := range frontier {
			for _, j := range s.adj[i] {
				q := s.members[j]
				if !s.net.Online(q) {
					continue
				}
				res.Messages++
				if visited[j] {
					continue
				}
				visited[j] = true
				res.Reached++
				if match != nil && !res.Found && match(q) {
					res.Found, res.FoundAt = true, q
				}
				next = append(next, j)
			}
		}
		frontier = next
	}
	s.net.Send(class, int64(res.Messages))
	return res
}
