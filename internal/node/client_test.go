package node

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdht/internal/transport"
)

// fakeMember serves a raw handler that looks like a cluster member to a
// RemoteClient: it answers the bootstrap GossipSync with *table (read at
// call time, so the table can be filled in after the addresses exist) and
// every routed op with the scripted response.
func fakeMember(t *testing.T, tr transport.Transport, table *[]transport.PeerState, routed func(transport.Request) transport.Response) string {
	t.Helper()
	srv, err := tr.Serve("", func(req transport.Request) transport.Response {
		if req.Op == transport.OpGossip {
			return transport.Response{OK: true, Gossip: &transport.Gossip{
				Kind: transport.GossipAck, Full: true, Updates: *table,
			}}
		}
		return routed(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestRemoteClientUnrecoverableStaleView pins the ErrStaleView taxonomy: a
// cluster that refuses every routed op as stale WITHOUT attaching its
// membership state leaves the client no way to converge — the query must
// fail typed instead of routing over an untrustworthy member list.
func TestRemoteClientUnrecoverableStaleView(t *testing.T) {
	tr := transport.NewMemory()
	staleNoState := func(req transport.Request) transport.Response {
		return transport.Response{Err: transport.StaleView} // no Gossip attached
	}
	var table []transport.PeerState
	a := fakeMember(t, tr, &table, staleNoState)
	b := fakeMember(t, tr, &table, staleNoState)
	table = []transport.PeerState{{Addr: a}, {Addr: b}}

	cl, err := DialRemote(context.Background(), tr, RemoteConfig{Seeds: []string{a}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), 42); !errors.Is(err, ErrStaleView) {
		t.Fatalf("query against stale-refusing cluster: err = %v, want ErrStaleView", err)
	}
}

// TestRemoteClientStaleRecoveryRetries pins the recoverable half: a
// refusal that attaches fresh membership state installs it, and the retry
// resolves against the updated view.
func TestRemoteClientStaleRecoveryRetries(t *testing.T) {
	tr := transport.NewMemory()
	// The fresh member answers queries; the old one refuses stale but
	// points at the new single-member table.
	var newTable, oldTable []transport.PeerState
	answered := false
	fresh := fakeMember(t, tr, &newTable, func(req transport.Request) transport.Response {
		if req.Op == transport.OpQuery {
			answered = true
			return transport.Response{OK: true, Found: true, Value: 99}
		}
		return transport.Response{OK: true}
	})
	newTable = []transport.PeerState{{Addr: fresh}}
	old := fakeMember(t, tr, &oldTable, func(req transport.Request) transport.Response {
		return transport.Response{Err: transport.StaleView, Gossip: &transport.Gossip{
			Kind: transport.GossipSync, Full: true, Updates: newTable,
		}}
	})
	oldTable = []transport.PeerState{{Addr: old}}

	cl, err := DialRemote(context.Background(), tr, RemoteConfig{Seeds: []string{old}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered || !res.FromIndex || res.Value != 99 || !answered {
		t.Fatalf("post-recovery query = %+v (answered=%v), want index hit 99 at the fresh member", res, answered)
	}
}

// TestRemoteClientPublishRecoversFromStaleView pins the publish half of the
// stale-view contract: a client that only ever publishes learns of a new
// member from the refusals its batch legs collect — every OpBatch leg goes
// through the engine's accept, like a probe's — installs the attached table
// and routes again, once. Before the legs were one method, PublishMany read
// resp.Err itself, the refusal never reached the view, and the client kept
// failing with ErrNoMembers until something else re-synced it.
func TestRemoteClientPublishRecoversFromStaleView(t *testing.T) {
	publishRecovers(t, transport.NewMemory())
}

func TestRemoteClientPublishRecoversFromStaleViewTCP(t *testing.T) {
	publishRecovers(t, transport.NewTCP())
}

func publishRecovers(t *testing.T, tr transport.Transport) {
	cfg := engineConfig()
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	joinCfg := cfg
	joinCfg.Seeds = []string{c.Addr(0)}
	joiner, err := New(tr, joinCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	waitFor(t, 5*time.Second, func() bool {
		for i := 0; i < c.Size(); i++ {
			if len(c.Node(i).Members()) != 4 {
				return false
			}
		}
		return len(joiner.Members()) == 4
	}, "the cluster to adopt the joiner")
	if got := len(client.Members()); got != 3 {
		t.Fatalf("client already sees %d members; the test needs its view stale", got)
	}

	pairs := []KV{{Key: 11, Value: 1}, {Key: 22, Value: 2}, {Key: 33, Value: 3}}
	if err := client.PublishMany(ctx, pairs); err != nil {
		t.Fatalf("PublishMany on a stale view: %v, want the refusal's table installed and the retry to land", err)
	}
	if got := len(client.Members()); got != 4 {
		t.Fatalf("client sees %d members after the refused publish, want 4", got)
	}
	members := append([]*Node{joiner}, c.Node(0), c.Node(1), c.Node(2))
	for _, p := range pairs {
		for _, addr := range joiner.ReplicaSet(p.Key) {
			for _, m := range members {
				if m.Addr() == addr && !m.IndexHas(p.Key) {
					t.Errorf("key %d missing at replica %s", p.Key, addr)
				}
			}
		}
	}
}

// TestRemoteClientPublishLargerThanAFrame publishes more pairs than one
// frame holds: on a 3-member, Repl-3 TCP cluster each member is owed 60,000
// insert items, about 1.2 MB. The batch for a member goes out as several
// requests of at most transport.MaxBatchItems items, and every pair lands.
func TestRemoteClientPublishLargerThanAFrame(t *testing.T) {
	tr := transport.NewTCP()
	cfg := engineConfig()
	cfg.Capacity = 1 << 16
	c, err := NewCluster(tr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	client, err := DialRemote(ctx, tr, RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: cfg.Repl, KeyTtl: cfg.KeyTtl})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pairs := make([]KV, 60000)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i+1) * 0x9e3779b97f4a7c15, Value: uint64(i + 1)}
	}
	if err := client.PublishMany(ctx, pairs); err != nil {
		t.Fatalf("PublishMany of %d pairs: %v", len(pairs), err)
	}
	for i := 0; i < c.Size(); i++ {
		if got := len(c.Node(i).LiveKeys()); got != len(pairs) {
			t.Errorf("member %s holds %d of the %d pairs", c.Addr(i), got, len(pairs))
		}
	}
}
