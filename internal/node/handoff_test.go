package node

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// remainingTTL reads the remaining lifetime, in rounds, of key in a node's
// index cache.
func remainingTTL(n *Node, key uint64) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	exp, ok := n.cache.Expires(keyspace.Key(key), now)
	if !ok {
		return 0, false
	}
	return exp - now, true
}

// churnConfig tunes the membership layer fast enough for churn tests:
// 10ms protocol period, 50ms suspicion window, 20ms round.
func churnConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 20 * time.Millisecond
	cfg.GossipInterval = 10 * time.Millisecond
	cfg.SuspicionTimeout = 50 * time.Millisecond
	cfg.SyncInterval = 20 * time.Millisecond
	return cfg
}

// convergenceBound is the churn tests' convergence budget: a generous
// number of protocol periods plus the suspicion window — failing it means
// the protocol, not the scheduler, is broken.
func convergenceBound(cfg Config) time.Duration {
	return 100*cfg.GossipInterval + 2*cfg.SuspicionTimeout
}

// TestHandoffOnDeathServesFromNewOwner is the acceptance path of the
// membership subsystem, on the memory transport: a node dies, the cluster
// converges with no coordinator, and a key whose replica group moved is
// served from its NEW owner — with its remaining TTL intact, not a fresh
// keyTtl.
func TestHandoffOnDeathServesFromNewOwner(t *testing.T) {
	cfg := churnConfig()
	cfg.Repl = 2
	cfg.KeyTtl = 100 // 2s of lifetime at the 20ms round
	c, err := NewCluster(transport.NewMemory(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatal(err)
	}

	// Index a corpus: publish everywhere, query once each — every key
	// lands in its replica group's caches with keyTtl of lifetime.
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("handoff:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(keys, 5)
	for _, k := range keys {
		if res := mustQuery(t, c.Node(0), k); !res.Answered {
			t.Fatalf("seeding query for %d unanswered", k)
		}
	}

	// Let the TTLs decay measurably: after ~30 rounds of silence the
	// remaining lifetime (~70 rounds) is far from a fresh keyTtl (100),
	// so a handoff that re-stamped entries would be caught.
	time.Sleep(30 * cfg.RoundDuration)

	// Pick a key whose replica group contains the victim.
	const victim = 2
	victimAddr := c.Addr(victim)
	var key uint64
	var oldGroup []string
	for _, k := range keys {
		group := c.Node(0).ReplicaSet(k)
		if slices.Contains(group, victimAddr) {
			key, oldGroup = k, group
			break
		}
	}
	if oldGroup == nil {
		t.Fatalf("no key routed to victim %s across %d keys", victimAddr, len(keys))
	}

	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatalf("dead peer not evicted from every live view: %v", err)
	}

	// The new replica group must include an owner the old group did not
	// have (the group refills to Repl from the survivors).
	var live *Node
	for i := 0; i < c.Size(); i++ {
		if i != victim {
			live = c.Node(i)
			break
		}
	}
	newGroup := live.ReplicaSet(key)
	var newcomer string
	for _, a := range newGroup {
		if !slices.Contains(oldGroup, a) {
			newcomer = a
		}
	}
	if newcomer == "" {
		t.Fatalf("replica group %v→%v did not move to any new owner", oldGroup, newGroup)
	}
	var newcomerNode *Node
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == newcomer {
			newcomerNode = c.Node(i)
		}
	}

	// The handoff must have pushed the entry to the newcomer with its
	// REMAINING lifetime: well under the original keyTtl, well over the
	// decay the test itself caused. waitFor: the push is asynchronous.
	waitFor(t, 5*time.Second, func() bool {
		_, ok := remainingTTL(newcomerNode, key)
		return ok
	}, "handed-off entry appearing at the new owner")
	ttl, _ := remainingTTL(newcomerNode, key)
	if ttl >= cfg.KeyTtl-5 {
		t.Fatalf("handed-off entry has %d rounds of lifetime — a fresh keyTtl (%d), not the remaining TTL", ttl, cfg.KeyTtl)
	}
	if ttl < cfg.KeyTtl/3 {
		t.Fatalf("handed-off entry has only %d rounds left of %d; the transfer lost most of the lifetime", ttl, cfg.KeyTtl)
	}

	// And the cluster serves the key from the index — through the new
	// group, with the dead node gone from every view.
	res := mustQuery(t, live, key)
	if !res.FromIndex {
		t.Fatalf("query after handoff = %+v, want an index hit from the new group", res)
	}
	if !slices.Contains(newGroup, res.AnsweredBy) {
		t.Fatalf("answered by %s, outside the new replica group %v", res.AnsweredBy, newGroup)
	}

	// Every push sent is either accepted or counted failed: once the
	// pushers settle, each survivor's counters balance.
	waitFor(t, 5*time.Second, func() bool {
		for i := 0; i < c.Size(); i++ {
			if n := c.Node(i); n != nil &&
				n.m.handoffMsgs.Value() != n.m.handoffKeys.Value()+n.m.handoffPushFailed.Value() {
				return false
			}
		}
		return true
	}, "handoff_msgs_total = handoff_keys_total + handoff_push_failed_total on every node")
}

// TestHandoffTCPSmoke runs the same story over real sockets, smaller: a
// 3-node TCP cluster, one crash, convergence with no coordinator, and an
// index hit on a key whose group moved.
func TestHandoffTCPSmoke(t *testing.T) {
	cfg := churnConfig()
	cfg.Repl = 2
	cfg.KeyTtl = 200
	c, err := NewCluster(transport.NewTCP(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatal(err)
	}

	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("tcp-handoff:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(keys, 3)
	for _, k := range keys {
		if res := mustQuery(t, c.Node(0), k); !res.Answered {
			t.Fatalf("seeding query for %d unanswered", k)
		}
	}

	const victim = 1
	victimAddr := c.Addr(victim)
	var key uint64
	for _, k := range keys {
		if slices.Contains(c.Node(0).ReplicaSet(k), victimAddr) {
			key = k
			break
		}
	}
	if key == 0 {
		t.Fatalf("no key routed to victim %s", victimAddr)
	}

	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatalf("TCP cluster did not converge after a crash: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return mustQuery(t, c.Node(0), key).FromIndex || mustQuery(t, c.Node(2), key).FromIndex
	}, "moved key served from the index over TCP")
}
