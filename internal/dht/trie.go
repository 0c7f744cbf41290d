package dht

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// TrieConfig parameterizes the P-Grid-style trie DHT.
type TrieConfig struct {
	// GroupSize is the target number of peers sharing each leaf path —
	// the replica group. The paper replicates the index with factor repl,
	// so GroupSize is normally set to repl.
	GroupSize int
	// Redundancy is how many references each routing level keeps to the
	// complementary subtree. More refs survive churn longer at the price
	// of more probing. Default 3.
	Redundancy int
	// Env is the probability that an entry is probed in a given round —
	// the paper's env constant (eq. 8), 1/14 in the evaluated scenario.
	Env float64
}

func (c *TrieConfig) setDefaults() {
	if c.Redundancy == 0 {
		c.Redundancy = 3
	}
}

func (c TrieConfig) validate(nActive int) error {
	if c.GroupSize < 1 {
		return fmt.Errorf("dht: GroupSize %d must be positive", c.GroupSize)
	}
	if nActive < 1 {
		return fmt.Errorf("dht: trie needs at least one active peer")
	}
	if c.Redundancy < 1 {
		return fmt.Errorf("dht: Redundancy %d must be positive", c.Redundancy)
	}
	if c.Env < 0 || c.Env > 1 {
		return fmt.Errorf("dht: Env %v must be a probability", c.Env)
	}
	return nil
}

// trieRef is one routing-table entry: a peer believed to cover the
// complementary subtree at some level.
type trieRef struct {
	peer netsim.PeerID
}

// triePeer is the per-peer routing state.
type triePeer struct {
	id   netsim.PeerID
	leaf int
	// table[i] holds refs to peers whose path agrees with ours on the
	// first i bits and differs at bit i.
	table [][]trieRef
}

// Trie is a P-Grid-style binary-trie DHT: active peers share leaf paths of
// a balanced trie of depth Depth(); a peer is responsible for every key
// whose first Depth() bits equal its path. Routing resolves one bit per
// hop, giving the logarithmic search cost of eq. 7.
type Trie struct {
	net    *netsim.Network
	cfg    TrieConfig
	active []netsim.PeerID
	depth  int
	leaves [][]netsim.PeerID     // leaf index → member peers
	peers  map[netsim.PeerID]int // active peer → index into state
	state  []triePeer
}

// NewTrie builds a balanced trie over the given active peers. The depth is
// the largest d with 2^d leaves of at least GroupSize peers each, so every
// leaf is a full replica group; peers are dealt to leaves round-robin.
func NewTrie(net *netsim.Network, active []netsim.PeerID, cfg TrieConfig, rng *rand.Rand) (*Trie, error) {
	cfg.setDefaults()
	if err := cfg.validate(len(active)); err != nil {
		return nil, err
	}
	nLeaves := len(active) / cfg.GroupSize
	depth := 0
	if nLeaves >= 2 {
		depth = bits.Len(uint(nLeaves)) - 1 // floor(log2)
	}
	nLeaves = 1 << depth

	t := &Trie{
		net:    net,
		cfg:    cfg,
		active: append([]netsim.PeerID(nil), active...),
		depth:  depth,
		leaves: make([][]netsim.PeerID, nLeaves),
		peers:  make(map[netsim.PeerID]int, len(active)),
		state:  make([]triePeer, 0, len(active)),
	}
	for i, p := range t.active {
		leaf := i % nLeaves
		t.leaves[leaf] = append(t.leaves[leaf], p)
		t.peers[p] = len(t.state)
		t.state = append(t.state, triePeer{id: p, leaf: leaf})
	}
	for i := range t.state {
		t.buildTable(&t.state[i], rng)
	}
	return t, nil
}

// buildTable fills a peer's routing table: Redundancy random refs per level
// into the complementary subtree.
func (t *Trie) buildTable(tp *triePeer, rng *rand.Rand) {
	tp.table = make([][]trieRef, t.depth)
	for lvl := 0; lvl < t.depth; lvl++ {
		lo, hi := t.subtreeRange(tp.leaf, lvl)
		span := hi - lo
		want := t.cfg.Redundancy
		refs := make([]trieRef, 0, want)
		seen := make(map[netsim.PeerID]bool, want)
		// The complementary subtree spans span leaves with GroupSize
		// peers each; sample refs uniformly from it.
		for tries := 0; len(refs) < want && tries < 16*want; tries++ {
			leaf := lo + rng.IntN(span)
			members := t.leaves[leaf]
			p := members[rng.IntN(len(members))]
			if seen[p] || p == tp.id {
				continue
			}
			seen[p] = true
			refs = append(refs, trieRef{peer: p})
		}
		tp.table[lvl] = refs
	}
}

// subtreeRange returns the half-open leaf range [lo, hi) of the subtree
// complementary to leaf at the given level: the leaves agreeing with leaf
// on the first lvl bits and differing at bit lvl.
func (t *Trie) subtreeRange(leaf, lvl int) (lo, hi int) {
	// Bit lvl of the leaf index, counted from the most significant of
	// the depth bits.
	shift := t.depth - 1 - lvl
	flipped := leaf ^ (1 << shift)
	lo = flipped &^ ((1 << shift) - 1)
	return lo, lo + (1 << shift)
}

// Depth returns the trie depth: key bits resolved by routing.
func (t *Trie) Depth() int { return t.depth }

// Leaf returns the leaf responsible for key: its first depth bits. Leaves
// partition the active peers, so equal leaves mean equal replica groups.
func (t *Trie) Leaf(key keyspace.Key) int {
	if t.depth == 0 {
		return 0
	}
	return int(uint64(key) >> (keyspace.Bits - t.depth))
}

// ReplicaGroup returns every peer — online or not — responsible for key.
// The slice is owned by the trie.
func (t *Trie) ReplicaGroup(key keyspace.Key) []netsim.PeerID {
	return t.leaves[t.Leaf(key)]
}

// ActivePeers returns the peers participating in the DHT. The slice is
// owned by the trie.
func (t *Trie) ActivePeers() []netsim.PeerID { return t.active }

// RoutingEntries returns the total number of routing-table entries across
// active peers (the quantity maintenance cost scales with).
func (t *Trie) RoutingEntries() int {
	total := 0
	for i := range t.state {
		for _, refs := range t.state[i].table {
			total += len(refs)
		}
	}
	return total
}

// Route routes a lookup for key by prefix routing, resolving at least one
// bit per hop, and returns the online responsible peer reached. A query
// from a non-active peer first hops to a random online active peer (the
// entry point the paper requires non-participants to know). Every hop is
// counted on the network's counters.
func (t *Trie) Route(from netsim.PeerID, key keyspace.Key, rng *rand.Rand) RouteResult {
	res := RouteResult{}
	curIdx, okIdx := t.peers[from]
	if !okIdx || !t.net.Online(from) {
		entry, ok := randomOnlineOf(t.net, t.active, rng)
		if !ok {
			return res
		}
		res.Hops++
		curIdx = t.peers[entry]
	}
	target := t.Leaf(key)
	// Each iteration either terminates at the responsible leaf or
	// forwards to a ref that agrees with the key on strictly more bits;
	// with a full routing table that is ≤ depth hops. Churn can force
	// detours through random re-entry, so a generous budget backstops
	// termination.
	budget := 4*t.depth + 8
	for hop := 0; hop < budget; hop++ {
		cur := &t.state[curIdx]
		if cur.leaf == target {
			res.OK = true
			res.Responsible = cur.id
			t.net.Send(stats.MsgIndexLookup, int64(res.Hops))
			return res
		}
		lvl := t.divergenceLevel(cur.leaf, target)
		next, ok := t.liveRef(cur, lvl, rng)
		if !ok {
			// Every ref for this level is offline: re-enter the
			// DHT somewhere else and keep routing. This is the
			// retry a real P-Grid peer performs when its
			// routing table is stale.
			entry, okEntry := randomOnlineOf(t.net, t.active, rng)
			if !okEntry {
				break
			}
			res.Hops++
			curIdx = t.peers[entry]
			continue
		}
		res.Hops++
		curIdx = t.peers[next]
	}
	t.net.Send(stats.MsgIndexLookup, int64(res.Hops))
	return res
}

// divergenceLevel returns the first bit (from the most significant of the
// depth bits) where two leaf indices differ.
func (t *Trie) divergenceLevel(a, b int) int {
	diff := uint(a ^ b)
	// Highest set bit of diff, as a level counted from the top.
	return t.depth - bits.Len(diff)
}

// liveRef returns a uniformly random online ref at the given level.
func (t *Trie) liveRef(tp *triePeer, lvl int, rng *rand.Rand) (netsim.PeerID, bool) {
	refs := tp.table[lvl]
	var pick netsim.PeerID
	count := 0
	for _, r := range refs {
		if !t.net.Online(r.peer) {
			continue
		}
		count++
		if rng.IntN(count) == 0 {
			pick = r.peer
		}
	}
	if count == 0 {
		return 0, false
	}
	return pick, true
}

// Maintain runs one round of probing: every online active peer probes each
// routing entry with probability Env; probes that hit an offline peer
// trigger a (message-free, piggybacked) repair — the entry is re-pointed at
// a random peer of the same complementary subtree.
func (t *Trie) Maintain(rng *rand.Rand) MaintenanceStats {
	var ms MaintenanceStats
	for i := range t.state {
		tp := &t.state[i]
		if !t.net.Online(tp.id) {
			continue
		}
		for lvl := range tp.table {
			for j := range tp.table[lvl] {
				if rng.Float64() >= t.cfg.Env {
					continue
				}
				ms.Probes++
				ref := &tp.table[lvl][j]
				if t.net.Online(ref.peer) {
					continue
				}
				ms.Stale++
				if p, ok := t.repairTarget(tp, lvl, rng); ok {
					ref.peer = p
					ms.Repaired++
				}
			}
		}
	}
	t.net.Send(stats.MsgMaintenance, int64(ms.Probes))
	return ms
}

// repairTarget picks a random online peer in the complementary subtree at
// the given level.
func (t *Trie) repairTarget(tp *triePeer, lvl int, rng *rand.Rand) (netsim.PeerID, bool) {
	lo, hi := t.subtreeRange(tp.leaf, lvl)
	span := hi - lo
	for tries := 0; tries < 32; tries++ {
		leaf := lo + rng.IntN(span)
		members := t.leaves[leaf]
		p := members[rng.IntN(len(members))]
		if p != tp.id && t.net.Online(p) {
			return p, true
		}
	}
	return 0, false
}
