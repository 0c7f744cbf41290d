package node

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdht/internal/core"
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

// keyWhere returns the first probe key for which ok holds: how the planner
// tests pick, on real ring views, a key whose replica sets have the shape a
// rule needs.
func keyWhere(t *testing.T, ok func(k keyspace.Key) bool) keyspace.Key {
	t.Helper()
	for i := uint64(1); i <= 10000; i++ {
		if k := keyspace.Key(i * 0x9e3779b97f4a7c15); ok(k) {
			return k
		}
	}
	t.Fatal("no probe key has the replica sets the test needs")
	return 0
}

// pushTargets lists, sorted, the destination of every push in plan.
func pushTargets(plan destinations) []string {
	var out []string
	for j, addr := range plan.addrs {
		for range plan.idxs[j] {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

func TestPlanPushesDesignatedPusher(t *testing.T) {
	// Set moves from {a,b,c} to {a,b,d}: c died, d is the new member.
	old := buildView([]string{"a", "b", "c"}, 3)
	next := buildView([]string{"a", "b", "d"}, 3)
	k := keyWhere(t, func(k keyspace.Key) bool { return old.Replicas(k)[0] == "a" })
	const now = 3
	entries := []core.Entry{{Key: k, Value: 10, Expires: now + 7}}

	// The first surviving member of the old set pushes to the newcomer…
	plan := planPushes(old, next, "a", entries, now)
	if want := []string{"d"}; !reflect.DeepEqual(pushTargets(plan), want) {
		t.Fatalf("pusher a plans %v, want %v", pushTargets(plan), want)
	}
	if p := pushItem(entries[plan.idxs[0][0]], now); p.TTL != 7 || p.Value != 10 {
		t.Fatalf("push %+v lost the remaining TTL or value", p)
	}
	// …and every other survivor stays silent.
	if plan := planPushes(old, next, "b", entries, now); len(plan.addrs) != 0 {
		t.Fatalf("survivor b plans %v, want nothing", pushTargets(plan))
	}
	// A holder outside both sets (a stray copy while the old set still has
	// a survivor) also stays silent — the survivors own the repair.
	if plan := planPushes(old, next, "z", entries, now); len(plan.addrs) != 0 {
		t.Fatalf("stray holder z plans %v, want nothing", pushTargets(plan))
	}
}

func TestPlanPushesFirstSurvivorWins(t *testing.T) {
	// a died: b becomes the designated pusher, c stays silent.
	old := buildView([]string{"a", "b", "c"}, 3)
	next := buildView([]string{"b", "c", "d"}, 3)
	k := keyWhere(t, func(k keyspace.Key) bool { return slices.Equal(old.Replicas(k), []string{"a", "b", "c"}) })
	entries := []core.Entry{{Key: k, Value: 20, Expires: 3}}
	if plan := planPushes(old, next, "b", entries, 0); !reflect.DeepEqual(pushTargets(plan), []string{"d"}) {
		t.Fatalf("pusher b plans %v, want [d]", pushTargets(plan))
	}
	if plan := planPushes(old, next, "c", entries, 0); len(plan.addrs) != 0 {
		t.Fatalf("survivor c plans %v, want nothing", pushTargets(plan))
	}
}

func TestPlanPushesOrphanRescue(t *testing.T) {
	// The entire old set {x,y} died; self holds a copy from an even older
	// view. Without rescue the entry is unreachable despite being alive.
	old := buildView([]string{"x", "y"}, 2)
	next := buildView([]string{"a", "b", "self"}, 2)
	k := keyWhere(t, func(k keyspace.Key) bool { return !slices.Contains(next.Replicas(k), "self") })
	entries := []core.Entry{{Key: k, Value: 30, Expires: 5}}
	plan := planPushes(old, next, "self", entries, 0)
	if want := []string{"a", "b"}; !reflect.DeepEqual(pushTargets(plan), want) {
		t.Fatalf("orphan rescue plans %v, want %v", pushTargets(plan), want)
	}
	// A rescuer inside the new set does not push to itself.
	next2 := buildView([]string{"a", "self"}, 2)
	plan = planPushes(old, next2, "self", entries, 0)
	if want := []string{"a"}; !reflect.DeepEqual(pushTargets(plan), want) {
		t.Fatalf("in-set rescuer plans %v, want %v", pushTargets(plan), want)
	}
}

func TestPlanPushesSkipsLapsedAndUnmovedEntries(t *testing.T) {
	old := buildView([]string{"a", "b"}, 2)
	k := keyWhere(t, func(k keyspace.Key) bool { return old.Replicas(k)[0] == "a" })
	// Set unchanged: nothing to push even for the designated pusher.
	if plan := planPushes(old, old, "a", []core.Entry{{Key: k, Expires: 9}}, 0); len(plan.addrs) != 0 {
		t.Fatalf("unmoved set plans %v, want nothing", pushTargets(plan))
	}
	next := buildView([]string{"a", "c"}, 2)
	// Lapsed between snapshot and planning: dropped.
	if plan := planPushes(old, next, "a", []core.Entry{{Key: k, Expires: 5}}, 5); len(plan.addrs) != 0 {
		t.Fatalf("lapsed entry planned %v, want nothing", pushTargets(plan))
	}
}

// planPushes is the only handoff filter: over random ring transitions it
// must push nothing for a key whose replica set did not move, leave exactly
// the first survivor of the old set pushing to the set's new members, and,
// when the whole old set is gone, have every holder rescue the key into the
// new set. Holders are the members of the key's old set. Random leavers
// almost never take a whole set, so odd trials retire the old set of their
// first key.
func TestPlanPushesMatchesReplicaSetChanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	var unmoved, moved, orphaned int
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.IntN(120)
		addrs := make([]string, n+8)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)
		}
		old := buildView(addrs[:n], 3)
		joined := addrs[n : n+1+rng.IntN(7)]
		keys := make([]keyspace.Key, 2000)
		for i := range keys {
			keys[i] = keyspace.Key(rng.Uint64())
		}
		var left []string
		if trial%2 == 1 {
			left = old.Replicas(keys[0])
		} else {
			for i := 0; i < 1+rng.IntN(3) && i < n-1; i++ {
				left = append(left, addrs[rng.IntN(n)])
			}
		}
		next := old.applyDelta(joined, left, 1)

		for i, k := range keys {
			e := core.Entry{Key: k, Value: core.Value(i), Expires: 5}
			oldSet, newSet := old.Replicas(e.Key), next.Replicas(e.Key)
			pusher := ""
			for _, a := range oldSet {
				if next.Contains(a) {
					pusher = a
					break
				}
			}
			var owed []string // what each pushing holder plans
			switch {
			case slices.Equal(oldSet, newSet):
				unmoved++
			case pusher == "":
				orphaned++
				owed = slices.Sorted(slices.Values(newSet))
			default:
				moved++
				for _, a := range newSet {
					if !slices.Contains(oldSet, a) {
						owed = append(owed, a)
					}
				}
				sort.Strings(owed)
			}
			for _, holder := range oldSet {
				var want []string
				if pusher == "" || holder == pusher {
					want = owed
				}
				if got := pushTargets(planPushes(old, next, holder, []core.Entry{e}, 0)); !slices.Equal(got, want) {
					t.Fatalf("trial %d key %v holder %s: plans %v, want %v\nold=%v\nnew=%v",
						trial, e.Key, holder, got, want, oldSet, newSet)
				}
			}
		}
	}
	if unmoved == 0 || moved == 0 || orphaned == 0 {
		t.Fatalf("generator missed a case: %d unmoved, %d moved, %d orphaned keys", unmoved, moved, orphaned)
	}
}

// deadlineOf is the wall-clock instant key expires at in n's index cache.
func deadlineOf(n *Node, key keyspace.Key) (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	exp, ok := n.cache.Expires(key, n.now())
	return n.roundDeadline(exp), ok
}

// TestHandoffIsOneRoundPerTransition pins the batched handoff. A member
// dies, and the node under test, holding thousands of entries, sends each
// destination its pushes in as few OpBatch frames as the frame limit allows
// and no unary insert. Its link is slow, so pushes sent one round trip
// after another would land rounds late; in one round every handed-off copy
// expires with the pusher's own, within the two rounds that quantizing two
// round clocks allows.
func TestHandoffIsOneRoundPerTransition(t *testing.T) {
	mem := transport.NewMemory()
	ct := newCountingTransport(mem)
	ct.delay = time.Millisecond
	cfg := churnConfig()
	cfg.Repl = 3
	cfg.KeyTtl = 1 << 20
	cfg.Capacity = 1 << 13
	nut, others := bootWithTransport(t, mem, ct, 3, cfg)
	defer nut.Close()
	for _, nd := range others {
		defer nd.Close()
	}

	// Index 3,000 keys at their replica sets: the node under test sits in
	// three of every four sets.
	ctx := context.Background()
	cl, err := DialRemote(ctx, mem, RemoteConfig{Seeds: []string{others[0].Addr()}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]KV, 3000)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(keyspace.HashString("one-round-handoff:" + strconv.Itoa(i))), Value: uint64(i + 1)}
	}
	err = cl.PublishMany(ctx, pairs)
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	entries := nut.liveEntries()
	if len(entries) < 2000 {
		t.Fatalf("node under test holds %d entries, want at least 2000", len(entries))
	}

	old := nut.view.Load()
	ct.snapshot() // discard the boot's membership traffic
	victim := others[len(others)-1]
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		msgs := nut.m.handoffMsgs.Value()
		return len(nut.Members()) == len(others) && msgs > 0 &&
			msgs == nut.m.handoffKeys.Value()+nut.m.handoffPushFailed.Value()
	}, "the node under test handing off the victim's keys")
	items, calls := ct.batchItems(), ct.snapshot()

	// What the node owed for the transition, destination by destination.
	plan := planPushes(old, nut.view.Load(), nut.Addr(), entries, 0)
	owed := make(map[string]int)
	for j, addr := range plan.addrs {
		owed[addr] += len(plan.idxs[j])
	}
	for addr, ops := range calls {
		if ops[transport.OpInsert] != 0 {
			t.Errorf("destination %s saw %d unary OpInserts, want none", addr, ops[transport.OpInsert])
		}
		frames := (owed[addr] + transport.MaxBatchItems - 1) / transport.MaxBatchItems
		if n := ops[transport.OpBatch]; n > frames || items[addr] != owed[addr] {
			t.Errorf("destination %s saw %d OpBatch frames of %d items, want at most %d carrying the %d it was owed",
				addr, n, items[addr], frames, owed[addr])
		}
	}
	if len(owed) == 0 {
		t.Fatal("the node under test owed no pushes; the test is vacuous")
	}

	byAddr := make(map[string]*Node)
	for _, nd := range others {
		byAddr[nd.Addr()] = nd
	}
	late, pushes := 0, 0
	for j, addr := range plan.addrs {
		for _, i := range plan.idxs[j] {
			pushes++
			got, ok := deadlineOf(byAddr[addr], entries[i].Key)
			if d := got.Sub(nut.roundDeadline(entries[i].Expires)).Abs(); !ok || d >= 2*cfg.RoundDuration {
				late++
			}
		}
	}
	if late > 0 {
		t.Fatalf("%d of %d handed-off copies are missing or expire two rounds or more away from the pusher's", late, pushes)
	}
}

// TestHandoffAppendsNothingToThePushersWAL: a durable pusher journals none
// of the pushes it sends. Replay would ignore such a record (the holder
// keeps its copy), and the receiver journals the insert it lands. Only the
// node under test holds entries, so nobody pushes to it, and nothing else
// mutates its index while the victim's keys move.
func TestHandoffAppendsNothingToThePushersWAL(t *testing.T) {
	mem := transport.NewMemory()
	cfg := churnConfig()
	cfg.Repl = 2
	cfg.KeyTtl = 1 << 20
	seed, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	cfg.Seeds = []string{seed.Addr()}
	victim, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	durable := cfg
	durable.Store = openStore(t, t.TempDir())
	nut, err := New(mem, durable)
	if err != nil {
		t.Fatal(err)
	}
	defer nut.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(seed.Members()) == 3 && len(victim.Members()) == 3 && len(nut.Members()) == 3
	}, "full membership")

	nut.mu.Lock()
	now := nut.now()
	for i := 0; i < 200; i++ {
		nut.cache.Put(keyspace.HashString("wal-handoff:"+strconv.Itoa(i)), core.Value(i+1), now+cfg.KeyTtl, now)
	}
	nut.mu.Unlock()
	appends := func() float64 {
		var b strings.Builder
		if err := nut.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, b.String(), "pdht_store_wal_appends_total")
	}
	before := appends()

	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		msgs := nut.m.handoffMsgs.Value()
		return len(nut.Members()) == 2 && msgs > 0 &&
			msgs == nut.m.handoffKeys.Value()+nut.m.handoffPushFailed.Value()
	}, "the node under test handing off the victim's keys")
	if nut.m.handoffKeys.Value() == 0 {
		t.Fatal("no push landed; the test is vacuous")
	}
	if got := appends(); got != before {
		t.Fatalf("pdht_store_wal_appends_total moved %v → %v across a handoff that landed %d pushes",
			before, got, nut.m.handoffKeys.Value())
	}
}
