package node

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/transport"
)

// engineConfig is the cluster the engine tests run on: r=3, nothing expires
// mid-test, and suspicion far beyond the test's horizon so a killed member
// stays in every view — the failover scenarios run on the pre-kill view.
func engineConfig() Config {
	cfg := replicaConfig()
	cfg.Repl = 3
	cfg.KeyTtl = 1 << 20
	return cfg
}

// TestEngineParity runs one scenario list against both hosts of the query
// engine — a member Node and a non-serving RemoteClient — on the same warm
// cluster, and asserts they resolve every scenario identically. The only
// differences allowed are the documented ones: legs a member serves itself
// cost no message (refresh and insert legs when it sits in the key's set,
// the search of its own content store before a broadcast), and the path to
// the primary is priced at the overlay route for a member, one message for
// a client. Each host gets its own key per scenario — twins with the same
// ordered replica set — so one host's inserts do not warm the other's keys.
func TestEngineParity(t *testing.T) { engineParity(t, transport.NewMemory()) }

// TestEngineParityTCP runs the same scenario list over real sockets, so
// every leg kind — probe, refresh, failover probe, read repair, broadcast,
// insert, batch, top-k, a stale-view refusal with its table attached, a
// traced reply with its spans — crosses the wire codec, which the Memory
// transport never touches.
func TestEngineParityTCP(t *testing.T) { engineParity(t, transport.NewTCP()) }

func engineParity(t *testing.T, tr transport.Transport) {
	cfg := engineConfig()
	c, err := NewCluster(tr, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	member := c.Node(0)
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(1)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	holder := c.Node(2) // content lives here: not at the member, so its broadcasts go out

	// twins finds two keys with the same ordered replica set, the member
	// inside or outside it as asked.
	serial := 0
	twins := func(memberInSet bool) (keys [2]uint64, rs []string) {
		t.Helper()
		seen := make(map[string]uint64)
		for ; serial < 100000; serial++ {
			k := uint64(keyspace.HashString("parity:" + strconv.Itoa(serial)))
			s := member.ReplicaSet(k)
			if len(s) != 3 || slices.Contains(s, member.Addr()) != memberInSet {
				continue
			}
			id := s[0] + "|" + s[1] + "|" + s[2]
			if first, ok := seen[id]; ok {
				serial++
				return [2]uint64{first, k}, s
			}
			seen[id] = k
		}
		t.Fatal("no twin keys found")
		return
	}
	indexAt := func(key, value uint64, addrs ...string) {
		for _, a := range addrs {
			rawInsert(t, tr, a, key, value, cfg.KeyTtl)
		}
	}

	// same asserts the parity contract for one key pair.
	same := func(t *testing.T, rs []string, key uint64, m, cl QueryResult) {
		t.Helper()
		if m.Answered != cl.Answered || m.FromIndex != cl.FromIndex || m.Value != cl.Value ||
			m.AnsweredBy != cl.AnsweredBy || m.Responsible != cl.Responsible || m.InsertGated != cl.InsertGated {
			t.Fatalf("hosts disagree on the outcome:\nmember %+v\nclient %+v", m, cl)
		}
		self := 0 // set legs the member serves itself
		if slices.Contains(rs, member.Addr()) {
			self = 1
		}
		// A member that is the primary serves its own probe, which carries
		// the primary's refresh: only a backup serves itself a refresh leg.
		selfRefresh := 0
		if slices.Contains(rs[1:], member.Addr()) {
			selfRefresh = 1
		}
		if cl.RefreshMsgs > 0 && m.RefreshMsgs != cl.RefreshMsgs-selfRefresh {
			t.Errorf("refresh legs: member %d, client %d, member serves %d itself", m.RefreshMsgs, cl.RefreshMsgs, selfRefresh)
		}
		if cl.InsertMsgs > 0 && m.InsertMsgs != cl.InsertMsgs-self {
			t.Errorf("insert legs: member %d, client %d, member serves %d itself", m.InsertMsgs, cl.InsertMsgs, self)
		}
		if m.RepairMsgs != cl.RepairMsgs {
			t.Errorf("repair legs: member %d, client %d", m.RepairMsgs, cl.RepairMsgs)
		}
		if cl.BroadcastMsgs > 0 && m.BroadcastMsgs != cl.BroadcastMsgs-1 {
			t.Errorf("broadcast legs: member %d, client %d; the member's own store is one free leg", m.BroadcastMsgs, cl.BroadcastMsgs)
		}
		// Beyond the route to the primary — overlay hops for the member, one
		// message for the client — both pay one message per failover probe.
		hops := member.view.Load().hops(member.Addr(), keyspace.Key(key))
		if self == 0 && m.IndexMsgs-hops != cl.IndexMsgs-1 {
			t.Errorf("index legs: member %d (route %d), client %d (route 1)", m.IndexMsgs, hops, cl.IndexMsgs)
		}
	}
	unary := func(t *testing.T, rs []string, keys [2]uint64) (m, cl QueryResult) {
		t.Helper()
		m = mustQuery(t, member, keys[0])
		cl, err := client.Query(ctx, keys[1])
		if err != nil {
			t.Fatal(err)
		}
		same(t, rs, keys[0], m, cl)
		return m, cl
	}

	t.Run("index hit", func(t *testing.T) {
		keys, rs := twins(false)
		for _, k := range keys {
			indexAt(k, 11, rs...)
		}
		m, cl := unary(t, rs, keys)
		if !m.FromIndex || m.AnsweredBy != rs[0] || cl.RefreshMsgs != 2 || cl.IndexMsgs != 1 {
			t.Fatalf("member %+v client %+v, want a hit at the primary and 2 refresh legs", m, cl)
		}
	})
	t.Run("index hit from inside the set", func(t *testing.T) {
		keys, rs := twins(true)
		for _, k := range keys {
			indexAt(k, 12, rs...)
		}
		m, cl := unary(t, rs, keys)
		if !m.FromIndex || cl.RefreshMsgs != 2 {
			t.Fatalf("member %+v client %+v, want a hit and 2 refresh messages from the client", m, cl)
		}
	})
	t.Run("miss, broadcast, insert", func(t *testing.T) {
		keys, rs := twins(false)
		for _, k := range keys {
			mustPublish(t, holder, k, 13)
		}
		m, cl := unary(t, rs, keys)
		if !m.Answered || m.FromIndex || m.AnsweredBy != holder.Addr() || m.InsertMsgs != 3 || cl.IndexMsgs != 3 || cl.BroadcastMsgs != 5 {
			t.Fatalf("member %+v client %+v, want a broadcast answer from %s inserted at 3 replicas", m, cl, holder.Addr())
		}
		// The insert landed: both keys now hit.
		if m, _ := unary(t, rs, keys); !m.FromIndex {
			t.Fatalf("repeat after insert = %+v, want an index hit", m)
		}
	})
	t.Run("unanswered", func(t *testing.T) {
		keys, rs := twins(false)
		if m, cl := unary(t, rs, keys); m.Answered || cl.BroadcastMsgs != 5 || cl.InsertMsgs != 0 {
			t.Fatalf("member %+v client %+v, want nobody to answer", m, cl)
		}
	})
	t.Run("pre-cancelled context", func(t *testing.T) {
		keys, _ := twins(false)
		dead, cancel := context.WithCancel(ctx)
		cancel()
		m, merr := member.Query(dead, keys[0])
		cl, cerr := client.Query(dead, keys[1])
		if !errors.Is(merr, context.Canceled) || !errors.Is(cerr, context.Canceled) || m != cl || m.Total() != 0 {
			t.Fatalf("member %+v/%v client %+v/%v, want context.Canceled before any leg", m, merr, cl, cerr)
		}
	})
	t.Run("QueryMany, mixed batch", func(t *testing.T) {
		hit, hitSet := twins(false)
		miss, missSet := twins(false)
		for i := range hit {
			indexAt(hit[i], 14, hitSet...)
			mustPublish(t, holder, miss[i], 15)
		}
		ms, err := member.QueryMany(ctx, []uint64{hit[0], miss[0]})
		if err != nil {
			t.Fatal(err)
		}
		cls, err := client.QueryMany(ctx, []uint64{hit[1], miss[1]})
		if err != nil {
			t.Fatal(err)
		}
		same(t, hitSet, hit[0], ms[0], cls[0])
		same(t, missSet, miss[0], ms[1], cls[1])
		// The batch item refreshed the primary; the rest of the set costs one
		// refresh message each.
		if !cls[0].FromIndex || cls[0].RefreshMsgs != 2 || !cls[1].Answered || cls[1].FromIndex || cls[1].InsertMsgs != 3 {
			t.Fatalf("client batch = %+v, want a hit with 2 refresh legs and a broadcast answer inserted at 3", cls)
		}
	})
	t.Run("QueryTopK", func(t *testing.T) {
		terms := []uint64{uint64(keyspace.HashString("parity:term:a")), uint64(keyspace.HashString("parity:term:b"))}
		mustPublish(t, c.Node(1), terms[0], 301)
		mustPublish(t, c.Node(1), terms[1], 301)
		mustPublish(t, holder, terms[0], 302)
		m, err := member.QueryTopK(ctx, terms, 2)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := client.QueryTopK(ctx, terms, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Entries) != 2 || m.Entries[0].Doc != 301 || !reflect.DeepEqual(m.Entries, cl.Entries) {
			t.Fatalf("member ranks %+v, client %+v; want 301 then 302 from both", m.Entries, cl.Entries)
		}
	})
	t.Run("traced query", func(t *testing.T) {
		// A client whose traces propagate: the probed member's spans ride
		// back on the reply and are stitched in under its address.
		var got []obs.QueryTrace
		traced, err := DialRemote(ctx, tr, RemoteConfig{
			Seeds: []string{c.Addr(1)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl, TraceSampling: 1,
			TraceHook: func(qt obs.QueryTrace) { got = append(got, qt) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer traced.Close()
		keys, rs := twins(false)
		indexAt(keys[1], 17, rs...)
		res, err := traced.Query(ctx, keys[1])
		if err != nil || !res.FromIndex || len(got) != 1 {
			t.Fatalf("traced query = %+v, %v with %d traces; want one traced hit", res, err, len(got))
		}
		remote := false
		for _, l := range got[0].Legs {
			remote = remote || (l.Peer == rs[0] && l.Name == "index-lookup" && l.Outcome == "hit")
		}
		if !remote {
			t.Fatalf("trace carries no index-lookup span recorded at %s:\n%s", rs[0], got[0].Timeline())
		}
	})
	t.Run("stale view re-route", func(t *testing.T) {
		// The client forgets a member: its view hash no longer matches, the
		// first probe is refused with the refuser's table attached, and the
		// query routes again over the installed view.
		keys, rs := twins(false)
		indexAt(keys[1], 18, rs...)
		var short []transport.PeerState
		for _, addr := range client.Members() {
			if addr != rs[2] {
				short = append(short, transport.PeerState{Addr: addr})
			}
		}
		if err := client.install(short); err != nil {
			t.Fatal(err)
		}
		before := client.m.staleViews.Value()
		res, err := client.Query(ctx, keys[1])
		if err != nil || !res.FromIndex || res.AnsweredBy != rs[0] || res.Value != 18 {
			t.Fatalf("query on a stale view = %+v, %v; want the hit at %s after a re-route", res, err, rs[0])
		}
		if client.m.staleViews.Value() == before || len(client.Members()) != c.Size() {
			t.Fatalf("no stale-view refusal was recovered from: %d members, counter at %d", len(client.Members()), before)
		}
	})
	// Last: it kills a member for good.
	t.Run("failover hit with read repair", func(t *testing.T) {
		keys, rs := twins(false)
		// The entry survives only at the last backup; the first backup lost
		// it and the primary is dead.
		for _, k := range keys {
			indexAt(k, 16, rs[2])
		}
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == rs[0] {
				if err := c.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, cl := unary(t, rs, keys)
		if !m.FromIndex || m.AnsweredBy != rs[2] || cl.IndexMsgs != 2 || cl.RefreshMsgs != 2 || cl.RepairMsgs != 1 {
			t.Fatalf("member %+v client %+v, want a hit at %s after the probe and 1 fetch, 2 refresh legs and 1 repair", m, cl, rs[2])
		}
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == rs[1] {
				for _, k := range keys {
					if _, ok := remainingTTL(c.Node(i), k); !ok {
						t.Errorf("read repair did not re-insert key %d at %s", k, rs[1])
					}
				}
			}
		}
	})
}

// TestRemoteClientTraceHasRefreshLegs pins the trace half of the one-engine
// contract: a traced client hit records the reset-on-hit fan-out — one
// "refresh" leg per member of the key's replica set — and, once a replica
// has lost the entry, the "read-repair" leg that re-inserts it: the same leg
// names a member's trace carries (TestTraceCapturesFailover).
func TestRemoteClientTraceHasRefreshLegs(t *testing.T) {
	tr := transport.NewMemory()
	cfg := engineConfig()
	c, err := NewCluster(tr, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var traces []obs.QueryTrace
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{
		Seeds: []string{c.Addr(0)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl,
		TraceHook: func(qt obs.QueryTrace) {
			mu.Lock()
			traces = append(traces, qt)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const key = 31337
	rs := c.Node(0).ReplicaSet(key)
	c.PublishReplicated([]uint64{key}, 4)
	// legs runs one traced query and returns its legs named name, by target.
	legs := func(name string) map[string]string {
		t.Helper()
		res, err := client.Query(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		qt := traces[len(traces)-1]
		out := make(map[string]string)
		for _, l := range qt.Legs {
			if l.Name == name && l.Peer == "" {
				out[l.Target] = l.Outcome
			}
		}
		t.Logf("%+v\n%s", res, qt.Timeline())
		return out
	}
	legs("insert") // miss → broadcast → insert at the whole set

	refreshes := legs("refresh")
	if len(refreshes) != len(rs) {
		t.Fatalf("hit recorded refresh legs %v, want one per set member %v", refreshes, rs)
	}
	for _, addr := range rs {
		if refreshes[addr] != "ok" {
			t.Errorf("refresh leg at %s = %q, want ok", addr, refreshes[addr])
		}
	}

	// Empty a backup: a restart without a store brings its cache back cold,
	// and nobody convicts it in between, so no view changes and no handoff
	// refills it.
	victim := rs[1]
	for i := 0; i < c.Size(); i++ {
		if c.Addr(i) == victim {
			if err := c.Kill(i); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if repairs := legs("read-repair"); len(repairs) != 1 || repairs[victim] != "ok" {
		t.Fatalf("hit after emptying %s recorded read-repair legs %v, want exactly that one", victim, repairs)
	}
}

// TestProbeOrderIsReplicaSetOrder pins the one placement order: the peers a
// query's index search visits, in the order it visits them, are exactly
// Node.ReplicaSet(key) — on a member and on a RemoteClient, with the whole
// set up, with the primary dead and with the first backup dead too — and
// every member reports the same slice. Nothing is indexed or published, so
// every walk runs the full set (a dead peer's leg fails and the walk moves
// on) before the broadcast comes back empty.
func TestProbeOrderIsReplicaSetOrder(t *testing.T) { probeOrder(t, transport.NewMemory()) }

func TestProbeOrderIsReplicaSetOrderTCP(t *testing.T) { probeOrder(t, transport.NewTCP()) }

func probeOrder(t *testing.T, tr transport.Transport) {
	cfg := engineConfig()
	c, err := NewCluster(tr, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	member := c.Node(0)
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	keys := make([]uint64, 200)
	sets := make([][]string, len(keys))
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("probe-order:" + strconv.Itoa(i)))
		sets[i] = member.ReplicaSet(keys[i])
		if len(sets[i]) != 3 {
			t.Fatalf("key %d placed at %v, want 3 replicas", keys[i], sets[i])
		}
		for j := 1; j < c.Size(); j++ {
			if got := c.Node(j).ReplicaSet(keys[i]); !reflect.DeepEqual(got, sets[i]) {
				t.Fatalf("key %d: %s places it at %v, %s at %v", keys[i], c.Addr(j), got, member.Addr(), sets[i])
			}
		}
	}
	walk := func(phase string) {
		t.Helper()
		bad := 0
		for _, h := range []struct {
			name  string
			query func(context.Context, uint64) (QueryResult, error)
		}{{"member", member.Query}, {"client", client.Query}} {
			for i, key := range keys {
				trace := obs.NewTrace(key)
				if _, err := h.query(obs.WithTrace(ctx, trace), key); err != nil {
					t.Fatalf("%s, %s: Query(%d): %v", phase, h.name, key, err)
				}
				var visited []string
				for _, l := range trace.Finish("").Legs {
					if l.Name == "probe" && l.Peer == "" {
						visited = append(visited, l.Target)
					}
				}
				if !reflect.DeepEqual(visited, sets[i]) {
					if bad++; bad <= 3 {
						t.Errorf("%s, %s: key %d probed %v, ReplicaSet says %v", phase, h.name, key, visited, sets[i])
					}
				}
			}
		}
		if bad > 0 {
			t.Fatalf("%s: %d of %d walks left the ReplicaSet order", phase, bad, 2*len(keys))
		}
	}
	walk("all up")

	// Kill the primary, then the first backup, of a key whose first two
	// replicas are not the querying member. The suspicion window outlasts
	// the test, so placement stays on the pre-kill view throughout.
	var victims []string
	for _, rs := range sets {
		if rs[0] != member.Addr() && rs[1] != member.Addr() {
			victims = rs[:2]
			break
		}
	}
	for n, phase := range []string{"primary down", "first backup down too"} {
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == victims[n] {
				if err := c.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		walk(phase)
	}
}

// TestRemoteClientHitPathAllocs holds the client's hit path at its
// measured allocation count, as TestQueryHitPathAllocsUnchangedBySampling
// holds the member's: nothing between Query and the wire may quietly add
// allocations. AllocsPerRun reads process-wide mallocs, so the minimum of
// several measurements keeps background gossip ticks out of the verdict.
func TestRemoteClientHitPathAllocs(t *testing.T) {
	// 3 members, r=3, memory transport: one round of the probe and two
	// refresh legs. 14 measured: the round's deadline context (5) and
	// memClient.Send's reply plumbing, 3 per leg (23 while the refreshes
	// took a second round and a deadline of their own and the replica set
	// was a fresh slice, 40 while every leg derived its own deadline and
	// ran on a goroutine of its own, 47 while the engine also re-ranked the
	// replica group per query).
	const ceiling = 14
	cfg := DefaultConfig()
	cfg.KeyTtl = 1 << 20
	cfg.GossipInterval = 10 * time.Millisecond
	tr := transport.NewMemory()
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const key = 424242
	mustPublish(t, c.Node(1), key, 7)
	if res, err := client.Query(ctx, key); err != nil || !res.Answered {
		t.Fatalf("warm-up query = %+v, %v", res, err)
	}
	best := float64(1 << 30)
	for rep := 0; rep < 5; rep++ {
		allocs := testing.AllocsPerRun(50, func() {
			if res, err := client.Query(ctx, key); err != nil || !res.FromIndex {
				t.Fatal("steady-state query missed the index")
			}
		})
		if allocs < best {
			best = allocs
		}
	}
	if best > ceiling {
		t.Errorf("client hit path allocates %.0f per query, want at most %d", best, ceiling)
	}
	t.Logf("client hit path: %.0f allocs/query", best)
}
