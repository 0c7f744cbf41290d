package node

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// TestCloseReturnsGoroutinesToBaseline holds Close to "nothing left
// running": a 3-member cluster and a RemoteClient serve queries and a top-k
// query, a kill and restart make a handoff run, and once everything is
// closed the goroutine count returns to what it was before the test booted
// anything. A leaked sweeper, retuner, gossip loop, handoff pusher,
// connection reader or request handler fails it, with every stack dumped.
// The second half races a joiner's boot against the seed's Close, twenty
// times: applyMembership's handoffs.Add must never race Close's
// handoffs.Wait, which the race detector checks.
func TestCloseReturnsGoroutinesToBaseline(t *testing.T) {
	closeToBaseline(t, transport.NewMemory())
}

func TestCloseReturnsGoroutinesToBaselineTCP(t *testing.T) {
	closeToBaseline(t, transport.NewTCP())
}

func closeToBaseline(t *testing.T, tr transport.Transport) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	cfg := churnConfig()
	cfg.Repl = 2
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatal(err)
	}
	cl, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: cfg.Repl})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString("close:" + strconv.Itoa(i)))
	}
	c.PublishReplicated(keys, 3)
	for _, k := range keys {
		mustQuery(t, c.Node(0), k)
		if _, err := cl.Query(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.QueryTopK(ctx, keys[:2], 1); err != nil {
		t.Fatal(err)
	}
	pushed := func() uint64 {
		var sum uint64
		for i := 0; i < c.Size(); i++ {
			if nd := c.Node(i); nd != nil {
				sum += nd.m.handoffMsgs.Value()
			}
		}
		return sum
	}
	start := pushed()
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(convergenceBound(cfg)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return pushed() > start }, "a handoff push")
	cl.Close()
	c.Close()
	waitGoroutines(t, before)

	// A joiner boots while its seed closes. The seed holds index entries,
	// so a join that lands before Close spawns a handoff; the Close is
	// staggered by 0.1 ms a round so the twenty rounds span refused joins,
	// handoffs cut short and handoffs that finish.
	for i := 0; i < 20; i++ {
		seedCfg := cfg
		seedCfg.Addr = ""
		seed, err := New(tr, seedCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.PublishMany(ctx, []KV{{Key: keys[0], Value: 1}, {Key: keys[1], Value: 2}}); err != nil {
			t.Fatal(err)
		}
		mustQuery(t, seed, keys[0])
		mustQuery(t, seed, keys[1])
		joined := make(chan *Node)
		go func() {
			joinCfg := cfg
			joinCfg.Addr, joinCfg.Seeds = "", []string{seed.Addr()}
			// nil when the seed closed first: a refused join is an outcome.
			nd, _ := New(tr, joinCfg)
			joined <- nd
		}()
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
		seed.Close()
		if nd := <-joined; nd != nil {
			nd.Close()
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count is back at before, failing
// with every goroutine's stack after 3 s.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 3s after Close, %d before the test:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
