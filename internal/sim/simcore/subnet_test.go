package simcore

import (
	"math/rand/v2"
	"testing"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

func membersRange(n int) []netsim.PeerID {
	out := make([]netsim.PeerID, n)
	for i := range out {
		out[i] = netsim.PeerID(i * 3) // non-contiguous IDs on purpose
	}
	return out
}

func newTestSubnet(t *testing.T, netSize, members, degree int, seed uint64) (*Subnet, *netsim.Network, *rand.Rand) {
	t.Helper()
	net := netsim.New(netSize)
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	s, err := NewSubnet(net, membersRange(members), degree, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, rng
}

func TestNewSubnetValidation(t *testing.T) {
	net := netsim.New(100)
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := NewSubnet(net, nil, 2, rng); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewSubnet(net, membersRange(5), 0, rng); err == nil {
		t.Error("zero degree accepted")
	}
	if _, err := NewSubnet(net, []netsim.PeerID{1, 1}, 1, rng); err == nil {
		t.Error("duplicate members accepted")
	}
	// Degree clamping: asking for more connections than peers exist.
	if _, err := NewSubnet(net, membersRange(3), 10, rng); err != nil {
		t.Errorf("over-large degree should clamp, got %v", err)
	}
	// A single-member subnet is legal (repl = 1).
	if _, err := NewSubnet(net, membersRange(1), 0, rng); err != nil {
		t.Errorf("singleton subnet rejected: %v", err)
	}
}

func TestSubnetFloodReachesAllOnline(t *testing.T) {
	s, net, _ := newTestSubnet(t, 200, 50, 2, 3)
	fs := s.Flood(s.Members()[0], nil, stats.MsgUpdate)
	if fs.Reached != 50 {
		t.Errorf("flood reached %d of 50 members", fs.Reached)
	}
	if fs.Messages < 49 {
		t.Errorf("flood sent only %d messages", fs.Messages)
	}
	// dup2 ballpark: mean degree ≈ 4, so duplicates ≈ 3× reach; the
	// paper's repl·dup2 = 1.8·repl says messages stay a small multiple
	// of the group size.
	if fs.Messages > 50*6 {
		t.Errorf("flood sent %d messages for 50 members — duplication way off", fs.Messages)
	}
	if got := net.Counters().Get(stats.MsgUpdate); got != int64(fs.Messages) {
		t.Error("counter mismatch")
	}
}

func TestSubnetFloodSkipsOffline(t *testing.T) {
	s, net, _ := newTestSubnet(t, 200, 40, 2, 4)
	for i, p := range s.Members() {
		if i%2 == 1 {
			net.SetOnline(p, false)
		}
	}
	fs := s.Flood(s.Members()[0], nil, stats.MsgUpdate)
	if fs.Reached > 20 {
		t.Errorf("reached %d members but only 20 online", fs.Reached)
	}
}

func TestSubnetFloodFromOfflineOrNonMember(t *testing.T) {
	s, net, _ := newTestSubnet(t, 200, 10, 2, 5)
	if fs := s.Flood(199, nil, stats.MsgUpdate); fs.Reached != 0 {
		t.Error("non-member flooded the subnet")
	}
	p := s.Members()[0]
	net.SetOnline(p, false)
	if fs := s.Flood(p, nil, stats.MsgUpdate); fs.Reached != 0 {
		t.Error("offline member flooded the subnet")
	}
}

func TestSubnetFloodMatch(t *testing.T) {
	s, _, _ := newTestSubnet(t, 200, 30, 2, 6)
	want := s.Members()[17]
	fs := s.Flood(s.Members()[0], func(p netsim.PeerID) bool { return p == want }, stats.MsgReplicaFlood)
	if !fs.Found || fs.FoundAt != want {
		t.Errorf("flood match failed: %+v", fs)
	}
}

func TestSubnetContains(t *testing.T) {
	s, _, _ := newTestSubnet(t, 100, 5, 2, 7)
	if !s.Contains(s.Members()[2]) {
		t.Error("member not contained")
	}
	if s.Contains(99) {
		t.Error("non-member contained")
	}
}

func TestRandomOnlineMember(t *testing.T) {
	s, net, rng := newTestSubnet(t, 100, 10, 2, 8)
	for _, p := range s.Members()[1:] {
		net.SetOnline(p, false)
	}
	for i := 0; i < 20; i++ {
		p, ok := s.RandomOnlineMember(rng)
		if !ok || p != s.Members()[0] {
			t.Fatalf("RandomOnlineMember = %v,%v", p, ok)
		}
	}
	net.SetOnline(s.Members()[0], false)
	if _, ok := s.RandomOnlineMember(rng); ok {
		t.Error("found an online member in a dead group")
	}
}

func TestVersionedUpdatePropagates(t *testing.T) {
	s, net, _ := newTestSubnet(t, 300, 50, 2, 9)
	v := NewVersioned(net, s)
	key := keyspace.HashString("article-7")
	fs := v.Update(s.Members()[0], key)
	if fs.Reached != 50 {
		t.Fatalf("update reached %d members", fs.Reached)
	}
	if v.Latest(key) != 1 {
		t.Errorf("Latest = %d, want 1", v.Latest(key))
	}
	if got := v.StaleMembers(key); got != 0 {
		t.Errorf("%d stale members after full propagation", got)
	}
	for _, p := range s.Members() {
		if v.VersionAt(p, key) != 1 {
			t.Errorf("member %d at version %d", p, v.VersionAt(p, key))
		}
	}
}

func TestVersionedOfflineMembersGoStale(t *testing.T) {
	s, net, _ := newTestSubnet(t, 300, 40, 2, 10)
	v := NewVersioned(net, s)
	key := keyspace.HashString("k")
	offline := s.Members()[:10]
	for _, p := range offline {
		net.SetOnline(p, false)
	}
	v.Update(s.Members()[20], key)
	if got := v.StaleMembers(key); got != 10 {
		t.Errorf("StaleMembers = %d, want 10", got)
	}
	for _, p := range offline {
		if v.VersionAt(p, key) != 0 {
			t.Errorf("offline member %d received the update", p)
		}
	}
}

func TestVersionedPullSyncOnRejoin(t *testing.T) {
	s, net, rng := newTestSubnet(t, 300, 40, 2, 11)
	v := NewVersioned(net, s)
	k1, k2 := keyspace.HashString("a"), keyspace.HashString("b")
	p := s.Members()[5]
	net.SetOnline(p, false)
	v.Update(s.Members()[0], k1)
	v.Update(s.Members()[0], k2)
	v.Update(s.Members()[0], k1) // k1 twice: version 2

	net.SetOnline(p, true)
	before := net.Counters().Get(stats.MsgUpdate)
	refreshed, ok := v.PullSync(p, rng)
	if !ok {
		t.Fatal("pull failed with the group online")
	}
	if refreshed != 2 {
		t.Errorf("refreshed %d keys, want 2", refreshed)
	}
	if net.Counters().Get(stats.MsgUpdate) != before+1 {
		t.Error("pull must cost exactly one request message")
	}
	if v.VersionAt(p, k1) != 2 || v.VersionAt(p, k2) != 1 {
		t.Errorf("versions after pull: k1=%d k2=%d", v.VersionAt(p, k1), v.VersionAt(p, k2))
	}
	if v.StaleMembers(k1) != 0 {
		t.Errorf("still %d stale members for k1", v.StaleMembers(k1))
	}
}

func TestVersionedPullSyncEdgeCases(t *testing.T) {
	s, net, rng := newTestSubnet(t, 100, 5, 2, 12)
	v := NewVersioned(net, s)
	if _, ok := v.PullSync(99, rng); ok {
		t.Error("non-member pulled successfully")
	}
	for _, p := range s.Members() {
		net.SetOnline(p, false)
	}
	if _, ok := v.PullSync(s.Members()[0], rng); ok {
		t.Error("pull succeeded from a dead group")
	}
}

func TestVersionedUpdateFromOfflinePeerIsLost(t *testing.T) {
	s, net, _ := newTestSubnet(t, 100, 10, 2, 13)
	v := NewVersioned(net, s)
	p := s.Members()[0]
	net.SetOnline(p, false)
	key := keyspace.HashString("k")
	fs := v.Update(p, key)
	if fs.Reached != 0 {
		t.Errorf("offline origin reached %d members", fs.Reached)
	}
	// The version counter advanced but nobody holds it — the paper's
	// poorly synchronized replicas, measurable as staleness.
	if v.StaleMembers(key) != 10 {
		t.Errorf("StaleMembers = %d, want 10", v.StaleMembers(key))
	}
}
