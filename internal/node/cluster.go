package node

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pdht/internal/store"
	"pdht/internal/transport"
)

// Cluster is the multi-node harness: it boots n nodes on one transport,
// joins them through the first node, and exposes kill/restart so tests can
// exercise churn. It is test plumbing promoted to the package proper
// because the load benchmark (bench/) wants the same choreography.
type Cluster struct {
	tr       transport.Transport
	cfg      Config
	nodes    []*Node
	addrs    []string
	storeFor StoreFactory
}

// StoreFactory supplies slot i's persistence store each time the slot
// boots — at cluster construction and again on every Restart. Returning
// (nil, nil) leaves the slot in-memory. A factory backed by per-slot data
// directories is what makes Restart a WARM restart: the revived node
// replays the store the killed incarnation journaled.
type StoreFactory func(slot int) (store.Store, error)

// NewCluster boots n nodes: the first seeds the cluster, the rest join it.
// cfg.Addr and cfg.Seed are overwritten per node; all other fields apply to
// every node.
func NewCluster(tr transport.Transport, n int, cfg Config) (*Cluster, error) {
	return NewClusterStores(tr, n, cfg, nil)
}

// NewClusterStores is NewCluster with a per-slot persistence seam: each
// slot's store comes from storeFor (nil means every slot is in-memory,
// exactly NewCluster). The cluster keeps the factory and reuses it in
// Restart, so kill/restart churn exercises the real recovery path.
func NewClusterStores(tr transport.Transport, n int, cfg Config, storeFor StoreFactory) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("node: cluster size %d must be positive", n)
	}
	c := &Cluster{tr: tr, cfg: cfg, nodes: make([]*Node, n), addrs: make([]string, n), storeFor: storeFor}
	for i := 0; i < n; i++ {
		nodeCfg := cfg
		nodeCfg.Addr = ""
		if i == 0 {
			nodeCfg.Seed = ""
		} else {
			nodeCfg.Seed = c.addrs[0]
		}
		if storeFor != nil {
			st, err := storeFor(i)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("node: cluster boot %d/%d: %w", i, n, err)
			}
			nodeCfg.Store = st
		}
		nd, err := New(tr, nodeCfg)
		if err != nil {
			if nodeCfg.Store != nil {
				nodeCfg.Store.Close() // ownership stays here on a failed New
			}
			c.Close()
			return nil, fmt.Errorf("node: cluster boot %d/%d: %w", i, n, err)
		}
		c.nodes[i] = nd
		c.addrs[i] = nd.Addr()
	}
	return c, nil
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
// live member. Without a store factory the cache comes back empty — crash
// recovery loses volatile state. With one (NewClusterStores), the revived
// node reopens its slot's store and rejoins WARM: recovered index entries
// re-admitted at their remaining TTL, recovered content served again.
func (c *Cluster) Restart(i int) error {
	if c.nodes[i] != nil {
		return fmt.Errorf("node: slot %d is alive", i)
	}
	seed := ""
	for j, nd := range c.nodes {
		if j != i && nd != nil {
			seed = c.addrs[j]
			break
		}
	}
	cfg := c.cfg
	cfg.Addr = c.addrs[i]
	cfg.Seed = seed
	if c.storeFor != nil {
		st, err := c.storeFor(i)
		if err != nil {
			return fmt.Errorf("node: restart %d: %w", i, err)
		}
		cfg.Store = st
	}
	nd, err := New(c.tr, cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close() // ownership stays here on a failed New
		}
		return err
	}
	c.nodes[i] = nd
	return nil
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

// Converged reports whether every live node's membership view equals
// exactly the set of live slots — dead peers evicted everywhere, joiners
// adopted everywhere. This is the gossip layer's steady state; no
// coordinator is consulted, only each node's own view.
func (c *Cluster) Converged() bool {
	want := c.LiveAddrs()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		got := nd.Members()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// WaitConverged polls Converged until it holds or the timeout passes —
// the convergence barrier the churn tests and the load benchmark lean on. The
// timeout is the caller's convergence bound: typically a small multiple
// of the gossip interval plus the suspicion timeout.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		// Check before testing the deadline: a zero or overspent budget
		// still succeeds when the cluster is already converged.
		if c.Converged() {
			return nil
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	views := make(map[string][]string)
	for i, nd := range c.nodes {
		if nd != nil {
			views[c.addrs[i]] = nd.Members()
		}
	}
	return fmt.Errorf("node: cluster not converged after %v: live %v, views %v",
		timeout, c.LiveAddrs(), views)
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

// Close shuts every live node down.
func (c *Cluster) Close() {
	for i, nd := range c.nodes {
		if nd != nil {
			nd.Close()
			c.nodes[i] = nil
		}
	}
}
