package simcore

import (
	"math/rand/v2"
	"testing"

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
