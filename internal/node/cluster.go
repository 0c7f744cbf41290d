package node

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"pdht/internal/store"
	"pdht/internal/transport"
)

// Cluster is the one multi-node harness: it boots n nodes, joins them into
// one membership, waits for their views to agree, and exposes kill/restart
// so tests can exercise churn. The node tests, the chaos fleet
// (internal/chaos) and the load benchmark (bench/) all boot through it.
type Cluster struct {
	cfg   Config
	slots SlotFactory
	nodes []*Node
	addrs []string
}

// Slot is how one cluster slot boots: the transport its node serves on,
// the address it asks for ("" lets the transport pick one) and its
// persistence store (nil leaves the slot in-memory).
type Slot struct {
	Transport transport.Transport
	Addr      string
	Store     store.Store
}

// SlotFactory supplies slot i's Slot each time the slot boots — at
// cluster construction and again on every Restart, which keeps the
// address the slot first booted at. A store backed by the slot's own data
// directory is what makes Restart a WARM restart: the revived node replays
// the store the killed incarnation journaled.
type SlotFactory func(slot int) (Slot, error)

// StoreFactory supplies slot i's persistence store each time the slot
// boots. Returning (nil, nil) leaves the slot in-memory.
type StoreFactory func(slot int) (store.Store, error)

// NewCluster boots n in-memory-store nodes on tr. cfg.Addr and cfg.Seeds
// are overwritten per node; all other fields apply to every node.
func NewCluster(tr transport.Transport, n int, cfg Config) (*Cluster, error) {
	return NewClusterStores(tr, n, cfg, nil)
}

// NewClusterStores is NewCluster with each slot's store taken from
// storeFor (nil means every slot is in-memory, exactly NewCluster).
func NewClusterStores(tr transport.Transport, n int, cfg Config, storeFor StoreFactory) (*Cluster, error) {
	return NewClusterSlots(n, cfg, func(i int) (s Slot, err error) {
		s.Transport = tr
		if storeFor != nil {
			s.Store, err = storeFor(i)
		}
		return s, err
	})
}

// bootWave is the most slots that join at once. A serial boot of a
// thousand nodes all joining slot 0 both takes minutes and melts the seed
// under full-state exchanges, and no real fleet rolls out that way either.
const bootWave = 64

// NewClusterSlots boots n nodes, each from slots(i): slot 0 starts the
// cluster alone, and the rest join already-booted slots in concurrent
// waves that double up to bootWave. Until the cluster holds a full wave,
// every joiner joins slot 0, which knows every earlier joiner; later
// joiners each join a booted slot drawn at random, which spreads both the
// full-state exchanges and the gossip of what each seed learned. (Four
// concurrent joiners of a 5-node cluster start gossiping in the same
// instant and more often need a second gossip round to converge than
// waves of 1, 2 and 1 do; seeds spread evenly rather than at random land
// on the same few slots in every wave and slowed a thousand-node fleet's
// convergence.) The caller should WaitConverged before trusting
// placement. On error the booted slots are closed.
func NewClusterSlots(n int, cfg Config, slots SlotFactory) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("node: cluster size %d must be positive", n)
	}
	c := &Cluster{cfg: cfg, slots: slots, nodes: make([]*Node, n), addrs: make([]string, n)}
	if err := c.boot(0, nil); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(0xb007, 0))
	for lo, hi := 1, 2; lo < n; lo, hi = hi, min(2*hi, hi+bootWave, n) {
		errs := make(chan error, hi-lo)
		for i := lo; i < hi; i++ {
			j := 0
			if lo >= bootWave {
				j = rng.IntN(lo)
			}
			// The slot after the drawn one is the fallback seed: a
			// joiner whose seed is too starved to answer in time still
			// boots, and the draws stay those of a single-seed boot.
			seeds := []string{c.addrs[j]}
			if lo > 1 {
				seeds = append(seeds, c.addrs[(j+1)%lo])
			}
			go func() { errs <- c.boot(i, seeds) }()
		}
		var first error
		for range hi - lo {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			c.Close()
			return nil, first
		}
	}
	return c, nil
}

// boot starts slot i joined through the first of seeds that answers (none
// starts a cluster), at the address the slot held before if it has one.
func (c *Cluster) boot(i int, seeds []string) error {
	s, err := c.slots(i)
	if err != nil {
		return fmt.Errorf("node: cluster boot %d/%d: %w", i, len(c.nodes), err)
	}
	cfg := c.cfg
	cfg.Addr, cfg.Seeds, cfg.Store = s.Addr, seeds, s.Store
	if c.addrs[i] != "" {
		cfg.Addr = c.addrs[i]
	}
	nd, err := New(s.Transport, cfg)
	if err != nil {
		if s.Store != nil {
			s.Store.Close() // ownership stays here on a failed New
		}
		return fmt.Errorf("node: cluster boot %d/%d: %w", i, len(c.nodes), err)
	}
	c.nodes[i], c.addrs[i] = nd, nd.Addr()
	return nil
}

// Size returns the number of slots (live or killed).
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the node in slot i, nil while killed.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Addr returns the address of slot i (stable across kill/restart).
func (c *Cluster) Addr(i int) string { return c.addrs[i] }

// Kill crashes the node in slot i: its endpoint stops answering, modeling
// an ungraceful departure. No goodbye messages are sent; the survivors learn
// of the death only through gossip suspicion.
func (c *Cluster) Kill(i int) error {
	if c.nodes[i] == nil {
		return fmt.Errorf("node: slot %d already killed", i)
	}
	err := c.nodes[i].Close()
	c.nodes[i] = nil
	return err
}

// Restart revives slot i at its original address, joining through any
// live member, with a fresh Slot from the factory. Without a store the
// cache comes back empty — crash recovery loses volatile state. With one,
// the revived node rejoins WARM: recovered index entries re-admitted at
// their remaining TTL, recovered content served again.
func (c *Cluster) Restart(i int) error {
	if c.nodes[i] != nil {
		return fmt.Errorf("node: slot %d is alive", i)
	}
	var seeds []string
	for j, nd := range c.nodes {
		if j != i && nd != nil && len(seeds) < 2 {
			seeds = append(seeds, c.addrs[j])
		}
	}
	return c.boot(i, seeds)
}

// LiveAddrs returns the sorted addresses of the currently live slots.
func (c *Cluster) LiveAddrs() []string {
	out := make([]string, 0, len(c.nodes))
	for i, nd := range c.nodes {
		if nd != nil {
			out = append(out, c.addrs[i])
		}
	}
	sort.Strings(out)
	return out
}

// Converged reports whether every live node has installed the view of
// exactly the live slots — dead peers evicted everywhere, joiners adopted
// everywhere. A view's hash fingerprints its sorted member list, so this
// is O(n): every live node's hash must equal that of LiveAddrs. No
// coordinator is consulted, only each node's own view. The nodes' hashes
// are compared with each other first, so a poll of a cluster still
// spreading stops at the first disagreement without building the list.
func (c *Cluster) Converged() bool {
	var first *Node
	for _, nd := range c.nodes {
		switch {
		case nd == nil:
		case first == nil:
			first = nd
		case nd.ViewHash() != first.ViewHash():
			return false
		}
	}
	return first == nil || first.ViewHash() == viewSeed(c.LiveAddrs())
}

// ClusterProgress summarises how far a cluster is from one view.
type ClusterProgress struct {
	// Live is the number of live slots.
	Live int
	// MinMembers and MaxMembers are the smallest and largest member
	// counts any live node's view holds.
	MinMembers, MaxMembers int
	// DistinctViews is the number of distinct view hashes across the live
	// nodes — 1 once they agree, though not necessarily on the live set.
	DistinctViews int
}

func (p ClusterProgress) String() string {
	return fmt.Sprintf("%d live, members %d..%d, %d distinct views", p.Live, p.MinMembers, p.MaxMembers, p.DistinctViews)
}

// Progress computes the cluster's convergence summary.
func (c *Cluster) Progress() ClusterProgress {
	p := ClusterProgress{MinMembers: math.MaxInt}
	hashes := make(map[uint64]struct{}, 8)
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		v := nd.view.Load()
		p.Live++
		p.MinMembers = min(p.MinMembers, len(v.members))
		p.MaxMembers = max(p.MaxMembers, len(v.members))
		hashes[v.hash] = struct{}{}
	}
	p.DistinctViews = len(hashes)
	return p
}

// WaitConverged polls Converged until it holds or the timeout passes —
// the convergence barrier the churn tests, the chaos fleet and the load
// benchmark lean on. The timeout is the caller's convergence bound:
// typically a small multiple of the gossip interval plus the suspicion
// timeout. A timeout error carries the Progress summary, whatever the
// cluster's size.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// Check before testing the deadline: a zero or overspent budget still
	// succeeds when the cluster is already converged.
	for !c.Converged() {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("node: cluster not converged after %v: %v", timeout, c.Progress())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// PublishRoundRobin distributes keys across the live nodes' content
// stores, value = key (the tests only need a recognizable payload).
func (c *Cluster) PublishRoundRobin(keys []uint64) {
	live := make([]*Node, 0, len(c.nodes))
	for _, nd := range c.nodes {
		if nd != nil {
			live = append(live, nd)
		}
	}
	if len(live) == 0 {
		return
	}
	for i, k := range keys {
		live[i%len(live)].Publish(context.Background(), k, k)
	}
}

// PublishReplicated installs each key in the content stores of repl
// distinct live slots (deterministically by slot order), value = key —
// content replication in the paper's sense, so a single crashed node does
// not make its share of the corpus unanswerable.
func (c *Cluster) PublishReplicated(keys []uint64, repl int) {
	n := len(c.nodes)
	if repl > n {
		repl = n
	}
	for i, k := range keys {
		placed := 0
		for j := 0; j < n && placed < repl; j++ {
			nd := c.nodes[(i+j)%n]
			if nd == nil {
				continue
			}
			nd.Publish(context.Background(), k, k)
			placed++
		}
	}
}

// IndexedKeys returns the number of distinct keys live in any node's index
// cache — the cluster-wide ground truth for eq. 15.
func (c *Cluster) IndexedKeys() int {
	distinct := make(map[uint64]bool)
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		for _, k := range nd.LiveKeys() {
			distinct[k] = true
		}
	}
	return len(distinct)
}

// Close shuts every live node down, in parallel: a serial close of a
// thousand nodes would dominate a test's time.
func (c *Cluster) Close() {
	var wg sync.WaitGroup
	for i, nd := range c.nodes {
		if nd != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nd.Close()
			}()
			c.nodes[i] = nil
		}
	}
	wg.Wait()
}
