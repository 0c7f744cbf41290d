package node

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"pdht/internal/adapt"
	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/stats"
	"pdht/internal/topk"
	"pdht/internal/transport"
)

// queryClasses are the message classes a QueryResult is filed under; the
// rest (topk, control, maintenance) belong to no query.
var queryClasses = []stats.MsgClass{
	stats.MsgIndexLookup, stats.MsgReplicaFlood, stats.MsgBroadcast, stats.MsgUpdate,
}

// TestMessageAccountingParity pins the count-once invariant on both hosts of
// the engine: the messages a host's queries report in their QueryResults are
// exactly the messages its per-class counters gained — Σ Total() = Δ(lookup
// + replica-flood + broadcast + update) — across unary and batched hits,
// misses, unanswered keys, gated inserts and a failover with read repair.
func TestMessageAccountingParity(t *testing.T) { messageAccountingParity(t, transport.NewMemory()) }

// TestMessageAccountingParityTCP is the same ledger over real sockets: the
// gated-insert, batched and failover scenarios cross the wire codec, and
// what a message costs changes nothing about how many are counted.
func TestMessageAccountingParityTCP(t *testing.T) { messageAccountingParity(t, transport.NewTCP()) }

func messageAccountingParity(t *testing.T, tr transport.Transport) {
	cfg := engineConfig()
	cfg.Adaptive = true
	cfg.RetuneInterval = time.Hour // the test retunes by hand
	c, err := NewCluster(tr, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(1)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	type querier interface {
		Query(context.Context, uint64) (QueryResult, error)
		QueryMany(context.Context, []uint64) ([]QueryResult, error)
		QueryTopK(context.Context, []uint64, int) (topk.Result, error)
	}
	// One host per row: what it queries through, where its counters are
	// read, and the running Σ Total() of everything it was handed back.
	type host struct {
		name     string
		q        querier
		messages func() map[stats.MsgClass]int64
		base     map[stats.MsgClass]int64
		total    int
		byField  QueryResult // field-wise sums, for the per-class checks
	}
	member := c.Node(0)
	hosts := []*host{
		{name: "member", q: member, messages: func() map[stats.MsgClass]int64 { return member.Report().Messages }},
		{name: "client", q: client, messages: client.m.messages},
	}
	for _, h := range hosts {
		h.base = h.messages()
	}
	add := func(h *host, results ...QueryResult) {
		for _, r := range results {
			h.total += r.Total()
			h.byField.IndexMsgs += r.IndexMsgs
			h.byField.failoverMsgs += r.failoverMsgs
			h.byField.BroadcastMsgs += r.BroadcastMsgs
			h.byField.InsertMsgs += r.InsertMsgs
			h.byField.RefreshMsgs += r.RefreshMsgs
			h.byField.RepairMsgs += r.RepairMsgs
		}
	}
	check := func(t *testing.T) {
		t.Helper()
		for _, h := range hosts {
			delta := stats.Diff(h.messages(), h.base)
			var filed int64
			for _, class := range queryClasses {
				filed += delta[class]
			}
			if filed != int64(h.total) {
				t.Errorf("%s: queries reported %d messages, counters gained %d (%s)",
					h.name, h.total, filed, stats.FormatSnapshot(delta))
			}
			f := h.byField
			for _, want := range []struct {
				class stats.MsgClass
				n     int
			}{
				{stats.MsgIndexLookup, f.IndexMsgs - f.failoverMsgs},
				{stats.MsgReplicaFlood, f.failoverMsgs},
				{stats.MsgBroadcast, f.BroadcastMsgs},
				{stats.MsgUpdate, f.InsertMsgs + f.RefreshMsgs + f.RepairMsgs},
			} {
				if delta[want.class] != int64(want.n) {
					t.Errorf("%s: class %s gained %d, results say %d", h.name, want.class, delta[want.class], want.n)
				}
			}
		}
	}
	// keysFor mints a fresh key range per (phase, host): hosts never warm
	// each other's keys.
	keysFor := func(phase string, h *host, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(keyspace.HashString(phase + ":" + h.name + ":" + strconv.Itoa(i)))
		}
		return keys
	}
	holder := c.Node(2)
	publish := func(keys []uint64) {
		for _, k := range keys {
			mustPublish(t, holder, k, k^0xfeed)
		}
	}

	t.Run("unary misses, hits and unanswered keys", func(t *testing.T) {
		for _, h := range hosts {
			keys := keysFor("unary", h, 24)
			publish(keys[:16]) // the last 8 resolve nowhere
			for round := 0; round < 3; round++ {
				for _, k := range keys {
					r, err := h.q.Query(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					add(h, r)
				}
			}
		}
		check(t)
	})
	t.Run("QueryMany misses, hits and unanswered keys", func(t *testing.T) {
		for _, h := range hosts {
			keys := keysFor("batch", h, 48)
			publish(keys[:32])
			for round := 0; round < 3; round++ {
				rs, err := h.q.QueryMany(ctx, keys)
				if err != nil {
					t.Fatal(err)
				}
				add(h, rs...)
			}
		}
		check(t)
	})
	t.Run("gated inserts", func(t *testing.T) {
		// Price indexing out by hand: with every peer a replica and the
		// routing tables probed every round, broadcasting beats the index
		// outright and the tuner gates every insert. A client has no tuner.
		if _, err := member.Tuner().Retune(adapt.Inputs{
			Members: 5, Observers: 1, Capacity: cfg.Capacity, Repl: 5,
			Env: 1, RefreshFanout: true, WindowRounds: 1,
		}); err != nil {
			t.Fatal(err)
		}
		h := hosts[0]
		keys := keysFor("gated", h, 8)
		publish(keys)
		gated := 0
		for _, k := range keys[:4] {
			r := mustQuery(t, member, k)
			add(h, r)
			if r.InsertGated {
				gated++
			}
		}
		rs, err := member.QueryMany(ctx, keys[4:])
		if err != nil {
			t.Fatal(err)
		}
		add(h, rs...)
		for _, r := range rs {
			if r.InsertGated {
				gated++
			}
		}
		if gated != len(keys) {
			t.Fatalf("%d of %d inserts gated — the scenario does not exercise the gate", gated, len(keys))
		}
		check(t)
	})
	t.Run("top-k legs count directly", func(t *testing.T) {
		terms := []uint64{uint64(keyspace.HashString("acct:term:a")), uint64(keyspace.HashString("acct:term:b"))}
		mustPublish(t, holder, terms[0], 401)
		mustPublish(t, c.Node(3), terms[1], 402)
		for _, h := range hosts {
			before := h.messages()[stats.MsgTopK]
			r, err := h.q.QueryTopK(ctx, terms, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.messages()[stats.MsgTopK] - before; r.Legs == 0 || got != int64(r.Legs) {
				t.Errorf("%s: top-k paid %d legs, class topk gained %d", h.name, r.Legs, got)
			}
		}
		check(t) // and none of them leaked into a query class
	})
	// Last: it kills a member for good.
	t.Run("failover with read repair", func(t *testing.T) {
		// Pick keys whose set excludes the querying member, so the dead
		// primary is never the host itself.
		var rs []string
		perHost := make(map[*host][]uint64)
		for serial := 0; len(perHost[hosts[0]]) < 3 || len(perHost[hosts[1]]) < 3; serial++ {
			k := uint64(keyspace.HashString("failover:" + strconv.Itoa(serial)))
			s := member.ReplicaSet(k)
			if len(s) != 3 || slices.Contains(s, member.Addr()) {
				continue
			}
			if rs == nil {
				rs = s
			}
			if s[0] != rs[0] {
				continue
			}
			h := hosts[serial%2]
			if len(perHost[h]) < 3 {
				perHost[h] = append(perHost[h], k)
				// The entry survives only at the last backup: the first
				// backup answers the refresh without it and gets repaired.
				rawInsert(t, tr, s[2], k, 77, cfg.KeyTtl)
			}
		}
		for i := 0; i < c.Size(); i++ {
			if c.Addr(i) == rs[0] {
				if err := c.Kill(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, h := range hosts {
			keys := perHost[h]
			r, err := h.q.Query(ctx, keys[0])
			if err != nil {
				t.Fatal(err)
			}
			if !r.FromIndex || r.failoverMsgs != 1 || r.RepairMsgs != 1 {
				t.Fatalf("%s: %+v, want a hit after 1 failover probe with 1 read repair", h.name, r)
			}
			add(h, r)
			// The batch leg to the dead primary fails; both keys are
			// fetched from the backup holding them.
			many, err := h.q.QueryMany(ctx, keys[1:])
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range many {
				if !r.FromIndex || r.failoverMsgs == 0 {
					t.Fatalf("%s: batched %+v, want a failover hit", h.name, r)
				}
			}
			add(h, many...)
		}
		check(t)
	})
	for _, h := range hosts {
		t.Logf("%s: Σ Total() = %d = Σ query classes", h.name, h.total)
	}
}

// TestUnaryAndBatchItemsAgree pins the one-item-executor contract: an index
// op means the same thing as a unary request and as an item of an OpBatch.
// Each sequence runs against two fresh nodes — one served unary requests,
// the other one-item batches — which must answer identically and end with
// identical caches.
func TestUnaryAndBatchItemsAgree(t *testing.T) {
	q := func(key uint64, ttl int) transport.BatchItem {
		return transport.BatchItem{Op: transport.OpQuery, Key: key, TTL: ttl}
	}
	ins := func(key, value uint64, ttl int) transport.BatchItem {
		return transport.BatchItem{Op: transport.OpInsert, Key: key, Value: value, TTL: ttl}
	}
	ref := func(key uint64, ttl int) transport.BatchItem {
		return transport.BatchItem{Op: transport.OpRefresh, Key: key, TTL: ttl}
	}
	for _, tc := range []struct {
		name      string
		ops       []transport.BatchItem
		refreshes uint64
	}{
		{"insert then query", []transport.BatchItem{ins(1, 10, 5), q(1, 0), q(2, 0)}, 0},
		{"overwrite", []transport.BatchItem{ins(1, 10, 5), ins(1, 11, 9), q(1, 0)}, 0},
		{"refresh live and missing", []transport.BatchItem{ins(1, 10, 5), ref(1, 40), ref(2, 40)}, 1},
		{"query with ttl, live and missing", []transport.BatchItem{ins(1, 10, 5), q(1, 40), q(2, 40), q(1, 0)}, 1},
		{"insert without ttl", []transport.BatchItem{ins(1, 10, 0), q(1, 0)}, 0},
		{"refresh without ttl", []transport.BatchItem{ins(1, 10, 5), ref(1, 0), ref(1, -3)}, 0},
		{"eviction at capacity", []transport.BatchItem{ins(1, 10, 5), ins(2, 20, 9), ins(3, 30, 7), q(1, 0), q(2, 0), q(3, 0)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boot := func() *Node {
				cfg := DefaultConfig()
				cfg.Capacity = 2
				cfg.RoundDuration = time.Hour // the round clock stands still
				n, err := New(transport.NewMemory(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				return n
			}
			unary, batched := boot(), boot()
			for i, it := range tc.ops {
				u := unary.handle(transport.Request{Op: it.Op, Key: it.Key, Value: it.Value, TTL: it.TTL})
				b := batched.handle(transport.Request{Op: transport.OpBatch, Batch: []transport.BatchItem{it}})
				if b.Err != "" || !b.OK || len(b.Batch) != 1 {
					t.Fatalf("op %d: batch envelope %+v", i, b)
				}
				got := transport.BatchResult{OK: u.OK, Found: u.Found, Value: u.Value, Err: u.Err}
				if got != b.Batch[0] {
					t.Errorf("op %d (%s): unary %+v, batch item %+v", i, it.Op, got, b.Batch[0])
				}
			}
			state := func(n *Node) map[keyspace.Key]core.Entry {
				out := make(map[keyspace.Key]core.Entry)
				for _, e := range n.liveEntries() {
					out[e.Key] = e
				}
				return out
			}
			if u, b := state(unary), state(batched); !reflect.DeepEqual(u, b) {
				t.Errorf("caches diverged:\nunary %+v\nbatch %+v", u, b)
			}
			if u, b := unary.Report().Refreshes, batched.Report().Refreshes; u != tc.refreshes || b != tc.refreshes {
				t.Errorf("refreshes counted: unary %d, batch %d, want %d", u, b, tc.refreshes)
			}
		})
	}
}
