package node

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pdht/internal/store"
	"pdht/internal/transport"
)

// openStore opens a file-backed store under dir, tuned for tests: no
// background fsync surprises, compaction only when asked.
func openStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	s, err := store.OpenFile(store.FileOptions{Dir: dir, Fsync: store.SyncNever, SnapshotEvery: time.Hour})
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", dir, err)
	}
	return s
}

// durableConfig is testConfig with room for a restart: keyTtl long enough
// (in wall time) that entries survive the kill/reopen window with plenty
// of remaining TTL left to assert on.
func durableConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundDuration = 50 * time.Millisecond
	cfg.KeyTtl = 100 // 5s of lifetime
	cfg.CallTimeout = 2 * time.Second
	return cfg
}

// wallDeadlines maps every live index entry to its absolute wall-clock
// expiry, via the node's own epoch arithmetic — the representation that
// must be invariant across a restart.
func wallDeadlines(n *Node) map[uint64]time.Time {
	out := make(map[uint64]time.Time)
	for _, e := range n.liveEntries() {
		out[uint64(e.Key)] = n.roundDeadline(e.Expires)
	}
	return out
}

// TestNodeWarmRestartRemainingTTL is the tentpole's core invariant: a node
// that goes down and comes back on the same data directory re-admits every
// index entry at its REMAINING TTL — the recovered absolute deadline within
// one round of the pre-kill one — and serves recovered content without
// republishing.
func TestNodeWarmRestartRemainingTTL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.Store = openStore(t, dir)
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, nd, 5, 555)
	mustPublish(t, nd, 6, 666)
	// Miss → broadcast (local content) → insert with keyTtl: both keys
	// enter the single-member replica set, i.e. this node's own cache.
	for _, k := range []uint64{5, 6} {
		if res := mustQuery(t, nd, k); !res.Answered {
			t.Fatalf("key %d unanswered", k)
		}
	}
	before := wallDeadlines(nd)
	if len(before) != 2 {
		t.Fatalf("pre-kill index holds %d entries, want 2", len(before))
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := durableConfig()
	cfg2.Store = openStore(t, dir)
	if got := cfg2.Store.Stats().Recovered; got != 2 {
		t.Fatalf("store recovered %d index entries, want 2", got)
	}
	nd2, err := New(transport.NewMemory(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()

	after := wallDeadlines(nd2)
	if len(after) != 2 {
		t.Fatalf("post-restart index holds %d entries, want 2: %v", len(after), after)
	}
	for k, d0 := range before {
		d1, ok := after[k]
		if !ok {
			t.Fatalf("key %d lost across restart", k)
		}
		// Conversion onto the new round clock rounds up, so the recovered
		// deadline may only move forward, and by less than one round.
		if d1.Before(d0.Add(-time.Millisecond)) || d1.After(d0.Add(cfg.RoundDuration)) {
			t.Errorf("key %d deadline %v → %v: restart moved it by %v, want within one %v round",
				k, d0, d1, d1.Sub(d0), cfg.RoundDuration)
		}
	}
	// Recovered content answers without republishing, and the index hit
	// proves the recovered entry serves reads, not just exists.
	res := mustQuery(t, nd2, 5)
	if !res.Answered || !res.FromIndex || res.Value != 555 {
		t.Fatalf("post-restart query = %+v, want index hit with value 555", res)
	}
	if nd2.StoredKeys() != 2 {
		t.Fatalf("post-restart content store holds %d keys, want 2", nd2.StoredKeys())
	}
}

// TestNodeCrashMidAppendRecovers models the kill -9 torn-write crash: the
// live node's WAL is copied as-is (no graceful Close, no final compaction)
// with a torn half-frame appended — exactly what a crash mid-append leaves.
// Recovery must drop only the torn tail and re-admit every intact entry at
// its remaining TTL.
func TestNodeCrashMidAppendRecovers(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	cfg := durableConfig()
	cfg.Store = openStore(t, dir1)
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for k := uint64(100); k < 110; k++ {
		mustPublish(t, nd, k, k*10)
		mustQuery(t, nd, k)
	}
	before := wallDeadlines(nd)
	if len(before) != 10 {
		t.Fatalf("pre-crash index holds %d entries, want 10", len(before))
	}

	// Snapshot the WAL bytes mid-flight — the crash image — and tear the
	// tail the way an interrupted write(2) would.
	wal, err := os.ReadFile(filepath.Join(dir1, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) == 0 {
		t.Fatal("live WAL empty; nothing was journaled")
	}
	torn := append(append([]byte{}, wal...), wal[:13]...)
	if err := os.WriteFile(filepath.Join(dir2, "wal.log"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir2)
	if st2.Stats().DroppedRecords == 0 {
		t.Fatal("torn tail not reported dropped")
	}
	cfg2 := durableConfig()
	cfg2.Store = st2
	nd2, err := New(transport.NewMemory(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	after := wallDeadlines(nd2)
	if len(after) != 10 {
		t.Fatalf("post-crash index holds %d entries, want 10", len(after))
	}
	for k, d0 := range before {
		d1, ok := after[k]
		if !ok {
			t.Fatalf("key %d lost in the crash", k)
		}
		if d1.Before(d0.Add(-time.Millisecond)) || d1.After(d0.Add(cfg.RoundDuration)) {
			t.Errorf("key %d deadline moved %v across the crash, want within one round", k, d1.Sub(d0))
		}
	}
	if nd2.StoredKeys() != 10 {
		t.Fatalf("post-crash content store holds %d keys, want 10", nd2.StoredKeys())
	}
}

// countingStore journals through a FileStore and tallies, by Op, the records
// it was handed — the WAL's contents as the node wrote them.
type countingStore struct {
	*store.FileStore
	mu      sync.Mutex
	appends map[store.Op]int
}

func (s *countingStore) Append(rec store.Record) error {
	s.mu.Lock()
	s.appends[rec.Op]++
	s.mu.Unlock()
	return s.FileStore.Append(rec)
}

// TestNodeEvictionAndExpiryOrderSurviveCrash journals a full cache's life —
// capacity evictions in expiry order, two waves of TTL expiry collected off
// the head of that order, overwrites that shorten a deadline — and replays
// it from a crash image. The WAL must hold one OpInsert per accepted insert
// and one OpExpire per eviction or expiry (so a resolved miss on a full
// index costs its replica exactly two appends), and the recovered index must
// be the pre-crash one key for key at its remaining TTL: nothing evicted or
// expired comes back.
func TestNodeEvictionAndExpiryOrderSurviveCrash(t *testing.T) {
	const capacity = 8
	dir1, dir2 := t.TempDir(), t.TempDir()
	cfg := durableConfig()
	cfg.Capacity = capacity
	st := &countingStore{FileStore: openStore(t, dir1), appends: make(map[store.Op]int)}
	cfg.Store = st
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	insert := func(key uint64, ttl int) bool {
		t.Helper()
		resp := nd.serve(transport.Request{Op: transport.OpInsert, Key: key, Value: key * 10, TTL: ttl})
		if resp.Err != "" {
			t.Fatalf("insert %d: %s", key, resp.Err)
		}
		return resp.OK
	}
	liveCount := func(want int) func() bool {
		return func() bool { return len(nd.liveEntries()) == want }
	}
	accepted, dropped := 0, 0

	// Fill: half the cache lapses within two rounds, half is long-lived.
	for i := uint64(0); i < capacity; i++ {
		ttl := 2
		if i%2 == 1 {
			ttl = 500 + int(i)
		}
		if !insert(i, ttl) {
			t.Fatalf("insert %d into a cache with room refused", i)
		}
		accepted++
	}
	waitFor(t, 5*time.Second, liveCount(capacity/2), "the short-lived half to expire")
	dropped += capacity / 2

	// Five capacities of inserts, each outliving everything stored: the
	// first four take the room expiry left, every later one evicts.
	for i := uint64(0); i < 5*capacity; i++ {
		if !insert(100+i, 1000+int(i)) {
			t.Fatalf("insert %d with the latest deadline refused", 100+i)
		}
		accepted++
	}
	dropped += 5*capacity - capacity/2
	if insert(999, 1) {
		t.Fatal("insert expiring before everything stored was accepted by a full cache")
	}

	// Three survivors are overwritten with a two-round lease — to the head
	// of the order they go — and lapse.
	for i := uint64(0); i < 3; i++ {
		if !insert(100+5*capacity-1-i, 2) {
			t.Fatal("overwrite with a shorter lease refused")
		}
		accepted++
	}
	waitFor(t, 5*time.Second, liveCount(capacity-3), "the shortened leases to expire")
	dropped += 3

	before := wallDeadlines(nd)
	st.mu.Lock()
	inserts, expires, total := st.appends[store.OpInsert], st.appends[store.OpExpire], 0
	for _, n := range st.appends {
		total += n
	}
	st.mu.Unlock()
	if inserts != accepted || expires != dropped || total != accepted+dropped {
		t.Fatalf("WAL holds %d OpInsert, %d OpExpire, %d records in all; want %d accepted inserts, %d evictions and expiries, nothing else",
			inserts, expires, total, accepted, dropped)
	}

	// The crash image: the WAL as it stands, no Close, no compaction.
	wal, err := os.ReadFile(filepath.Join(dir1, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := durableConfig()
	cfg2.Capacity = capacity
	cfg2.Store = openStore(t, dir2)
	if got := cfg2.Store.Stats().Recovered; got != len(before) {
		t.Fatalf("store recovered %d index entries, want the %d live before the crash", got, len(before))
	}
	nd2, err := New(transport.NewMemory(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	after := wallDeadlines(nd2)
	if len(after) != len(before) {
		t.Fatalf("post-crash index holds %d entries, want %d: %v", len(after), len(before), after)
	}
	for k, d0 := range before {
		d1, ok := after[k]
		if !ok {
			t.Fatalf("key %d lost in the crash", k)
		}
		if d1.Before(d0.Add(-time.Millisecond)) || d1.After(d0.Add(cfg.RoundDuration)) {
			t.Errorf("key %d deadline moved %v across the crash, want within one round", k, d1.Sub(d0))
		}
	}
}

// TestClusterRestartStorm is the ISSUE's headline scenario: a 3-node
// cluster warms its index under a repeating workload, every node is killed
// and restarted (a rolling crash-loop), and the warm fleet — per-slot data
// directories — must come back at no less than 90% of its pre-storm hit
// rate, while the identical cold fleet measurably does not.
func TestClusterRestartStorm(t *testing.T) {
	const (
		nodes = 3
		keys  = 40
	)
	cfg := durableConfig()
	cfg.KeyTtl = 400 // 20s: the storm must not eat the TTL budget
	cfg.GossipInterval = 25 * time.Millisecond
	cfg.SuspicionTimeout = 100 * time.Millisecond
	cfg.SyncInterval = 50 * time.Millisecond
	bound := 100*cfg.GossipInterval + 2*cfg.SuspicionTimeout

	run := func(t *testing.T, storeFor StoreFactory) (pre, post float64) {
		c, err := NewClusterStores(transport.NewMemory(), nodes, cfg, storeFor)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.WaitConverged(bound); err != nil {
			t.Fatal(err)
		}
		corpus := make([]uint64, keys)
		for i := range corpus {
			corpus[i] = uint64(0xD00D_0000 + i)
		}
		c.PublishReplicated(corpus, nodes)

		sweep := func() float64 {
			hits := 0
			for i, k := range corpus {
				if res := mustQuery(t, c.Node(i%nodes), k); res.FromIndex {
					hits++
				}
			}
			return float64(hits) / float64(keys)
		}
		sweep()       // warm: every key broadcast-resolved and inserted
		pre = sweep() // measured operating point: repeats hit the index

		// The storm: the whole fleet goes down at once and comes back.
		// (A rolling restart would let the live majority repair each
		// revived slot from its replicas — only a full outage separates
		// durable state from volatile state.)
		for i := 0; i < nodes; i++ {
			if err := c.Kill(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nodes; i++ {
			if err := c.Restart(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitConverged(bound); err != nil {
			t.Fatal(err)
		}
		post = sweep()
		return pre, post
	}

	t.Run("warm", func(t *testing.T) {
		dirs := t.TempDir()
		pre, post := run(t, func(slot int) (store.Store, error) {
			return store.OpenFile(store.FileOptions{
				Dir: filepath.Join(dirs, "node", string(rune('a'+slot))), Fsync: store.SyncNever, SnapshotEvery: time.Hour,
			})
		})
		if pre < 0.9 {
			t.Fatalf("pre-storm hit rate %.2f; workload never warmed", pre)
		}
		if post < 0.9*pre {
			t.Fatalf("warm restart storm: hit rate %.2f → %.2f, want ≥ 0.9× the pre-storm rate", pre, post)
		}
	})
	t.Run("cold", func(t *testing.T) {
		pre, post := run(t, nil)
		if pre < 0.9 {
			t.Fatalf("pre-storm hit rate %.2f; workload never warmed", pre)
		}
		if post > 0.5*pre {
			t.Fatalf("cold restart storm: hit rate %.2f → %.2f; losing every volatile cache should cost far more", pre, post)
		}
	})
}

// TestLiveSnapshotNeverContainsExpired is the regression test for the
// snapshot/sweeper race: the round used to filter a cache snapshot must be
// read under the same lock that serializes the cache, or a stale round
// lets entries already expired at snapshot time into handoff and
// persistence plans. The concurrent load runs under -race in CI; the
// deterministic check pins the filter itself.
func TestLiveSnapshotNeverContainsExpired(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoundDuration = time.Millisecond // contended, fast-moving clock
	cfg.KeyTtl = 3
	nd, err := New(transport.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	// Published keys make queries insert: every hit-or-miss cycles a
	// short-lived entry through the cache.
	for k := uint64(1000); k < 1008; k++ {
		mustPublish(t, nd, k, k)
	}

	// Concurrent load: queries keep inserting and expiring short-lived
	// entries while snapshots race the sweeper (the -race run is the
	// teeth of this half).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			nd.Query(context.Background(), 1000+k%8)
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		nd.liveEntries()
		nd.LiveKeys()
	}
	close(stop)
	wg.Wait()

	// Deterministic filter check: an entry whose deadline has passed must
	// never appear in a snapshot, even before the sweeper's next tick.
	nd.mu.Lock()
	now := nd.now()
	nd.cache.Put(77, 770, now+1, now) // lapses within ~1ms
	nd.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	for _, e := range nd.liveEntries() {
		if uint64(e.Key) == 77 {
			t.Fatalf("snapshot contains entry expired before snapshot time: %+v", e)
		}
	}
}

// TestNoopStoreKeepsHotPathClean pins the zero-cost contract: a node
// without Config.Store journals nothing and installs no cache hook.
func TestNoopStoreKeepsHotPathClean(t *testing.T) {
	nd, err := New(transport.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if nd.persist != nil {
		t.Fatal("node without Config.Store grew a persistence plane")
	}
	mustPublish(t, nd, 1, 2)
	mustQuery(t, nd, 1)
}
