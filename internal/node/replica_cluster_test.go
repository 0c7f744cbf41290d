package node

import (
	"context"
	"slices"
	"strconv"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// replicaConfig is the replication tests' scenario: r=2 replica sets, a
// long TTL so nothing lapses mid-test, and a suspicion window far beyond
// the test's measurement phase — the point is what happens BEFORE the
// membership layer convicts the dead peer and handoff repairs the sets.
func replicaConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 50 * time.Millisecond
	cfg.KeyTtl = 200 // 10s of lifetime
	cfg.Repl = 2
	cfg.GossipInterval = 50 * time.Millisecond
	cfg.SuspicionTimeout = 30 * time.Second // the view must NOT converge mid-test
	cfg.SyncInterval = 200 * time.Millisecond
	return cfg
}

// rawInsert installs key→value directly at one peer with ViewHash 0 (the
// handoff convention), bypassing the replica fan-out — the tests' tool for
// building replica sets with deliberate holes.
func rawInsert(t *testing.T, tr transport.Transport, addr string, key, value uint64, ttl int) {
	t.Helper()
	cl, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Call(context.Background(), transport.Request{
		Op: transport.OpInsert, Key: key, Value: value, TTL: ttl,
	})
	if err != nil || resp.Err != "" || !resp.OK {
		t.Fatalf("raw insert at %s: %v / %+v", addr, err, resp)
	}
}

// TestReplicaFailoverServesWithoutBroadcast is the acceptance test of the
// replica subsystem: with r=2, killing the primary of a hot key keeps
// queries answering from the backup at the cost of ONE extra RPC — no
// broadcast leg — and the corpus-wide hit rate holds within 0.1 of its
// pre-kill value, all before the membership layer has converged on the
// death (suspicion is configured far beyond the test's horizon).
func TestReplicaFailoverServesWithoutBroadcast(t *testing.T) {
	cfg := replicaConfig()
	c, err := NewCluster(transport.NewMemory(), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	keys := make([]uint64, 30)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("failover:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(keys, 4)
	for _, k := range keys {
		if res := mustQuery(t, c.Node(0), k); !res.Answered {
			t.Fatalf("seeding query for %d unanswered", k)
		}
	}

	// The hot key: primary at a node that is neither the querier (slot 0)
	// nor the querier's address anywhere in the set, so every probe
	// crosses the wire and the RPC arithmetic is exact.
	querier := c.Node(0)
	var hot uint64
	var hotSet []string
	var victim int
	for _, k := range keys {
		rs := querier.ReplicaSet(k)
		if len(rs) == 2 && rs[0] != querier.Addr() && !slices.Contains(rs, querier.Addr()) {
			for i := 0; i < c.Size(); i++ {
				if c.Addr(i) == rs[0] {
					hot, hotSet, victim = k, rs, i
				}
			}
			if hot != 0 {
				break
			}
		}
	}
	if hot == 0 {
		t.Fatal("no key found with a fully remote r=2 set")
	}

	// Pre-kill baseline: a hit at the primary, at hops index messages.
	base := mustQuery(t, querier, hot)
	if !base.FromIndex || base.AnsweredBy != hotSet[0] {
		t.Fatalf("pre-kill query = %+v, want a hit at primary %s", base, hotSet[0])
	}

	preVersion := querier.ViewVersion()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// The failover: an index hit from the backup, exactly one RPC more
	// than the baseline, and no broadcast.
	res := mustQuery(t, querier, hot)
	if !res.FromIndex {
		t.Fatalf("post-kill query = %+v, want an index hit from the backup", res)
	}
	if res.AnsweredBy != hotSet[1] {
		t.Fatalf("answered by %s, want backup %s", res.AnsweredBy, hotSet[1])
	}
	if res.BroadcastMsgs != 0 {
		t.Fatalf("failover paid %d broadcast messages, want none", res.BroadcastMsgs)
	}
	if res.IndexMsgs != base.IndexMsgs+1 {
		t.Fatalf("failover cost %d index messages vs baseline %d, want exactly one extra",
			res.IndexMsgs, base.IndexMsgs)
	}

	// Corpus-wide availability: every key still answers from the index,
	// so the hit rate holds within 0.1 of the (perfect) pre-kill value.
	hits := 0
	for _, k := range keys {
		r := mustQuery(t, querier, k)
		if !r.Answered {
			t.Fatalf("key %d unanswered after the kill", k)
		}
		if r.FromIndex {
			hits++
		}
	}
	if rate := float64(hits) / float64(len(keys)); rate < 0.9 {
		t.Fatalf("post-kill hit rate %.2f dipped more than 0.1 below the pre-kill 1.0", rate)
	}
	// All of it happened on the pre-kill view: the membership layer never
	// convicted the victim during the measurement.
	if v := querier.ViewVersion(); v != preVersion {
		t.Fatalf("view moved from v%d to v%d mid-test; the suspicion window is mis-sized", preVersion, v)
	}
	if got := len(querier.Members()); got != 4 {
		t.Fatalf("querier sees %d members, want the full pre-kill 4", got)
	}
}

// TestReadRepairHealsPrimary drives the read-repair path: a key that lives
// only at its backup (a hole at the primary, as churn or a lost write leg
// would leave) is queried, answers from the backup, and the hit re-inserts
// it at the primary — the next query hits the primary again.
func TestReadRepairHealsPrimary(t *testing.T) {
	cfg := replicaConfig()
	tr := transport.NewMemory()
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	querier := c.Node(0)
	var key uint64
	var rs []string
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("no key found with a fully remote r=2 set")
		}
		k := uint64(keyspace.HashString("readrepair:" + strconv.Itoa(i)))
		if s := querier.ReplicaSet(k); len(s) == 2 && !slices.Contains(s, querier.Addr()) {
			key, rs = k, s
			break
		}
	}

	// Build the hole: the entry exists only at the backup.
	rawInsert(t, tr, rs[1], key, 77, cfg.KeyTtl)

	res := mustQuery(t, querier, key)
	if !res.FromIndex || res.AnsweredBy != rs[1] {
		t.Fatalf("query = %+v, want a failover hit at backup %s", res, rs[1])
	}
	if res.RepairMsgs != 1 {
		t.Fatalf("hit sent %d repair messages, want exactly 1 (the primary)", res.RepairMsgs)
	}
	if res.RefreshMsgs != 1 {
		t.Fatalf("hit fanned %d refresh legs, want 1 (the backup; the primary's query carried its refresh)", res.RefreshMsgs)
	}

	// The primary holds the entry again, and the next query hits it.
	var primaryNode *Node
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == rs[0] {
			primaryNode = c.Node(i)
		}
	}
	if _, ok := remainingTTL(primaryNode, key); !ok {
		t.Fatal("read repair did not re-insert the entry at the primary")
	}
	if res := mustQuery(t, querier, key); res.AnsweredBy != rs[0] {
		t.Fatalf("post-repair query answered by %s, want the healed primary %s", res.AnsweredBy, rs[0])
	}
}

// TestBatchRefreshFanoutRepairsBackups drives the batched counterpart: a
// QueryMany hit at the primary fans the reset-on-hit refresh to the backup
// in an OpBatch, discovers the backup never got the entry, and re-inserts
// it there — so the set is whole again and a primary death after the batch
// still leaves the key served.
func TestBatchRefreshFanoutRepairsBackups(t *testing.T) {
	cfg := replicaConfig()
	tr := transport.NewMemory()
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	querier := c.Node(0)
	var key uint64
	var rs []string
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("no key found with a fully remote r=2 set")
		}
		k := uint64(keyspace.HashString("batchrepair:" + strconv.Itoa(i)))
		if s := querier.ReplicaSet(k); len(s) == 2 && !slices.Contains(s, querier.Addr()) {
			key, rs = k, s
			break
		}
	}

	// The entry exists only at the primary: the batch leg will hit there,
	// and the backup's refresh must come back "not held".
	rawInsert(t, tr, rs[0], key, 88, cfg.KeyTtl)

	results, err := querier.QueryMany(context.Background(), []uint64{key})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if !res.FromIndex || res.AnsweredBy != rs[0] {
		t.Fatalf("batch query = %+v, want a hit at primary %s", res, rs[0])
	}
	if res.RefreshMsgs != 1 || res.RepairMsgs != 1 {
		t.Fatalf("batch hit fanned refresh=%d repair=%d, want 1 and 1 (the backup)", res.RefreshMsgs, res.RepairMsgs)
	}

	var backupNode *Node
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == rs[1] {
			backupNode = c.Node(i)
		}
	}
	if _, ok := remainingTTL(backupNode, key); !ok {
		t.Fatal("batched read repair did not install the entry at the backup")
	}

	// The repaired backup carries the set through a primary death.
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == rs[0] {
			if err := c.Kill(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res := mustQuery(t, querier, key); !res.FromIndex || res.AnsweredBy != rs[1] {
		t.Fatalf("post-kill query = %+v, want the repaired backup %s to answer", res, rs[1])
	}
}
