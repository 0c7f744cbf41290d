package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdht/internal/transport"
)

// openCluster boots n member handles on one transport (the first seeds the
// cluster) and waits for full membership.
func openCluster(t *testing.T, tr transport.Transport, n int, extra ...Option) []*Client {
	t.Helper()
	ctx := context.Background()
	base := []Option{
		withTransport(tr),
		WithRoundDuration(50 * time.Millisecond),
		WithKeyTtl(1 << 16), // nothing expires mid-test
	}
	base = append(base, extra...)
	members := make([]*Client, n)
	for i := range members {
		opts := base
		if i > 0 {
			opts = append(append([]Option(nil), base...), WithSeeds(members[0].Addr()))
		}
		m, err := Open(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
		t.Cleanup(func() { m.Close() })
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range members {
			if len(m.Members()) != n {
				return false
			}
		}
		return true
	}, "full membership")
	return members
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOpenMemberAndClientOverTCP is the embed acceptance criterion: Open
// works in both member and non-serving client mode over real sockets. A
// 3-member TCP cluster forms, a client-only handle connects through a
// seed, resolves a key published at a member (miss → broadcast → insert),
// hits the index on the repeat, and batch-queries — without ever appearing
// in the members' views.
func TestOpenMemberAndClientOverTCP(t *testing.T) {
	ctx := context.Background()
	members := openCluster(t, transport.NewTCP(), 3)

	if !members[0].Serving() || members[0].Addr() == "" {
		t.Fatalf("member handle not serving: addr %q", members[0].Addr())
	}
	if err := members[1].Publish(ctx, 777, 42); err != nil {
		t.Fatal(err)
	}

	cl, err := Open(ctx, WithTCP(), WithClientOnly(),
		WithSeeds(members[0].Addr()), WithKeyTtl(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Serving() {
		t.Fatal("client-only handle claims to serve")
	}
	if got := len(cl.Members()); got != 3 {
		t.Fatalf("client sees %d members, want 3", got)
	}

	first, err := cl.Query(ctx, 777)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Answered || first.Value != 42 {
		t.Fatalf("first client query = %+v, want broadcast answer 42", first)
	}
	second, err := cl.Query(ctx, 777)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromIndex || second.Value != 42 {
		t.Fatalf("second client query = %+v, want index hit 42", second)
	}

	// Batched access over TCP, keys warm and cold mixed.
	if err := members[2].Publish(ctx, 888, 43); err != nil {
		t.Fatal(err)
	}
	results, err := cl.QueryMany(ctx, []uint64{777, 888})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].FromIndex || results[0].Value != 42 || results[0].Key != 777 {
		t.Fatalf("batch warm key = %+v, want index hit 42", results[0])
	}
	if !results[1].Answered || results[1].Value != 43 || results[1].Key != 888 {
		t.Fatalf("batch cold key = %+v, want broadcast answer 43", results[1])
	}

	// The non-serving client never joined the membership.
	for i, m := range members {
		if got := len(m.Members()); got != 3 {
			t.Fatalf("member %d sees %d members after client traffic, want 3", i, got)
		}
	}
}

// TestClientOnlyPublishIndexes pins the client-mode Publish contract: the
// pair lands in the cluster's index (resolvable by anyone) rather than in
// a content store the client does not have.
func TestClientOnlyPublishIndexes(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	members := openCluster(t, tr, 3)
	cl, err := Open(ctx, withTransport(tr), WithClientOnly(),
		WithSeeds(members[0].Addr()), WithKeyTtl(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.PublishMany(ctx, []KV{{Key: 901, Value: 1}, {Key: 902, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[uint64]uint64{901: 1, 902: 2} {
		res, err := members[1].Query(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answered || !res.FromIndex || res.Value != want {
			t.Fatalf("member query for client-published key %d = %+v, want index hit %d", i, res, want)
		}
	}
}

// TestClientSurvivesMembershipChange kills a member and checks the
// non-serving client recovers through the stale-view protocol: the first
// routed request after the change may be refused with the responder's
// membership state, the client re-syncs and the retry resolves.
func TestClientSurvivesMembershipChange(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	members := openCluster(t, tr, 4, WithGossipInterval(20*time.Millisecond))
	cl, err := Open(ctx, withTransport(tr), WithClientOnly(),
		WithSeeds(members[0].Addr(), members[1].Addr()), WithKeyTtl(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for k := uint64(1); k <= 10; k++ {
		if err := members[int(k)%3].Publish(ctx, k, k*100); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the last member; survivors converge on a 3-member view.
	members[3].Close()
	waitFor(t, 10*time.Second, func() bool {
		for _, m := range members[:3] {
			if len(m.Members()) != 3 {
				return false
			}
		}
		return true
	}, "survivors to converge")

	// The client still holds the 4-member view; queries must recover via
	// resync rather than fail. Keys resolve from index or broadcast.
	for k := uint64(1); k <= 10; k++ {
		res, err := cl.Query(ctx, k)
		if err != nil {
			t.Fatalf("query %d after membership change: %v", k, err)
		}
		if !res.Answered || res.Value != k*100 {
			t.Fatalf("query %d after membership change = %+v, want %d", k, res, k*100)
		}
	}
	if got := len(cl.Members()); got != 3 {
		t.Fatalf("client still sees %d members, want 3 after resync", got)
	}
}

// TestParseAndQuery drives the metadata syntax end to end through the
// public API.
func TestParseAndQuery(t *testing.T) {
	ctx := context.Background()
	members := openCluster(t, transport.NewMemory(), 2)

	// Publishing under the query's key is the application's job; the
	// members resolve the text to the same key the client will.
	res, err := members[0].ParseAndQuery(ctx, "title=Weather Iráklion AND date=2004/03/14")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answered {
		t.Fatalf("unpublished metadata query answered: %+v", res)
	}
	if _, err := members[0].ParseAndQuery(ctx, "no-equals-sign"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("malformed query error = %v, want ErrBadQuery", err)
	}
}

// TestTypedErrors pins the error taxonomy across the public surface.
func TestTypedErrors(t *testing.T) {
	ctx := context.Background()

	// Client-only mode without seeds is a configuration error; with
	// unreachable seeds it is ErrNoMembers.
	if _, err := Open(ctx, withTransport(transport.NewMemory()), WithClientOnly()); err == nil {
		t.Fatal("client-only open without seeds succeeded")
	}
	if _, err := Open(ctx, withTransport(transport.NewMemory()), WithClientOnly(),
		WithSeeds("mem-nowhere")); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("open with dead seeds: err = %v, want ErrNoMembers", err)
	}

	tr := transport.NewMemory()
	members := openCluster(t, tr, 2)
	cl, err := Open(ctx, withTransport(tr), WithClientOnly(), WithSeeds(members[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Query(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed client: err = %v, want ErrClosed", err)
	}
	if err := cl.Publish(ctx, 1, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish on closed client: err = %v, want ErrClosed", err)
	}

	// A member handle propagates the same taxonomy.
	m := members[0]
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.Query(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("query with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestQueryManyAlignment pins the batched result contract: results align
// with keys, carry the keys, and duplicates are answered independently.
func TestQueryManyAlignment(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	members := openCluster(t, tr, 3)
	pairs := make([]KV, 8)
	keys := make([]uint64, 0, 9)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(1000 + i), Value: uint64(i)}
		keys = append(keys, pairs[i].Key)
	}
	keys = append(keys, keys[0]) // duplicate
	if err := members[1].PublishMany(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	results, err := members[0].QueryMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(results), len(keys))
	}
	for i, res := range results {
		if res.Key != keys[i] {
			t.Fatalf("result %d carries key %d, want %d", i, res.Key, keys[i])
		}
		if !res.Answered || res.Value != keys[i]-1000 {
			t.Fatalf("result %d = %+v, want value %d", i, res, keys[i]-1000)
		}
	}
}

// TestOpenSeedFallback opens a member through a seed list whose first
// entry is dead — the second must carry the join.
func TestOpenSeedFallback(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	members := openCluster(t, tr, 2)
	m, err := Open(ctx, withTransport(tr), WithRoundDuration(50*time.Millisecond),
		WithSeeds("mem-dead", members[0].Addr()))
	if err != nil {
		t.Fatalf("open with half-dead seed list: %v", err)
	}
	defer m.Close()
	waitFor(t, 5*time.Second, func() bool { return len(m.Members()) == 3 }, "joiner view")
}

// TestReportModes pins Report availability: member handles measure,
// client-only handles do not.
func TestReportModes(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	members := openCluster(t, tr, 2)
	if rep, ok := members[0].Report(); !ok || rep == "" {
		t.Fatalf("member report = (%q, %v), want a status block", rep, ok)
	}
	cl, err := Open(ctx, withTransport(tr), WithClientOnly(), WithSeeds(members[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, ok := cl.Report(); ok {
		t.Fatal("client-only handle claims to have a report")
	}
}
