package simcore

import (
	"slices"
	"testing"

	"pdht/internal/core"
	"pdht/internal/netsim"
	"pdht/internal/overlay"
	"pdht/internal/stats"
)

// A key's replica subnetwork is the overlay.Graph PartialIndex builds over
// the key's replica group; its floods have a TTL of the group size.

func subnetOf(t *testing.T, pi *PartialIndex, key string) *overlay.Graph {
	t.Helper()
	g, err := pi.subnetFor(k(key))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reachable lists, breadth first, the online members joined to origin
// through online members: what a flood from origin must reach.
func reachable(g *overlay.Graph, origin netsim.PeerID) []netsim.PeerID {
	if !g.Net().Online(origin) {
		return nil
	}
	order := []netsim.PeerID{origin}
	for i := 0; i < len(order); i++ {
		for _, q := range g.Neighbors(order[i]) {
			if g.Net().Online(q) && !slices.Contains(order, q) {
				order = append(order, q)
			}
		}
	}
	return order
}

func TestNewSubnetValidation(t *testing.T) {
	pi, _, _ := testIndex(t, ttlConfig(), 1)
	for _, key := range []string{"a", "b", "c", "d"} {
		g, group := subnetOf(t, pi, key), pi.DHT().ReplicaGroup(k(key))
		if !slices.Equal(g.Members(), group) {
			t.Fatalf("%s: subnet members %v, replica group %v", key, g.Members(), group)
		}
		for _, p := range group {
			if g.Degree(p) < subnetDegree {
				t.Errorf("%s: member %d has %d links, want at least %d", key, p, g.Degree(p), subnetDegree)
			}
			for _, q := range g.Neighbors(p) {
				if !slices.Contains(group, q) {
					t.Errorf("%s: member %d linked to %d outside the group", key, p, q)
				}
			}
		}
		if subnetOf(t, pi, key) != g {
			t.Errorf("%s: subnet rebuilt on the second lookup", key)
		}
	}
}

func TestSubnetFloodReachesAllOnline(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 3)
	whole := 0
	for i, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		g := subnetOf(t, pi, key)
		origin := g.Members()[i%len(g.Members())]
		want, before := len(reachable(g, origin)), net.Counters().Get(stats.MsgUpdate)
		fs := g.Flood(origin, len(g.Members()), nil, stats.MsgUpdate)
		if fs.Reached != want || fs.Messages < want-1 {
			t.Errorf("%s: flood reached %d members with %d messages, %d are connected to the origin", key, fs.Reached, fs.Messages, want)
		}
		if got := net.Counters().Get(stats.MsgUpdate) - before; got != int64(fs.Messages) {
			t.Errorf("%s: %d update messages filed, flood sent %d", key, got, fs.Messages)
		}
		if want == len(g.Members()) {
			whole++
		}
	}
	if whole == 0 {
		t.Fatal("no subnet was connected: no whole-group flood was checked")
	}
	// Insert gossips as replica floods and Update as updates; both
	// install at every online member.
	floods, updates := net.Counters().Get(stats.MsgReplicaFlood), net.Counters().Get(stats.MsgUpdate)
	ir, ur := pi.Insert(0, k("ins"), 1), pi.Update(0, k("upd"), 2)
	if ir.Stored != len(subnetOf(t, pi, "ins").Members()) || ur.Stored != len(subnetOf(t, pi, "upd").Members()) {
		t.Errorf("writes to fully online groups stored %d and %d", ir.Stored, ur.Stored)
	}
	if got := net.Counters().Get(stats.MsgReplicaFlood) - floods; got != int64(ir.GossipMsgs) {
		t.Errorf("insert filed %d replica-flood messages, gossiped %d", got, ir.GossipMsgs)
	}
	if got := net.Counters().Get(stats.MsgUpdate) - updates; got != int64(ur.GossipMsgs) {
		t.Errorf("update filed %d update messages, gossiped %d", got, ur.GossipMsgs)
	}
}

func TestSubnetFloodSkipsOffline(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 4)
	g := subnetOf(t, pi, "half")
	online := 0
	for i, p := range g.Members() {
		net.SetOnline(p, i%2 == 0)
		if i%2 == 0 {
			online++
		}
	}
	fs := g.Flood(g.Members()[0], len(g.Members()), func(p netsim.PeerID) bool {
		if !net.Online(p) {
			t.Errorf("flood reached offline member %d", p)
		}
		return false
	}, stats.MsgUpdate)
	if want := len(reachable(g, g.Members()[0])); fs.Reached != want || fs.Reached > online {
		t.Errorf("flood reached %d members, %d are connected through the %d online", fs.Reached, want, online)
	}
	if ir := pi.Insert(g.Members()[0], k("half"), 1); ir.Stored != online {
		t.Errorf("insert stored at %d members, %d are online", ir.Stored, online)
	}
}

func TestSubnetFloodFromOfflineOrNonMember(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 5)
	g := subnetOf(t, pi, "x")
	p := g.Members()[0]
	net.SetOnline(p, false)
	for _, origin := range []netsim.PeerID{299, p} {
		if fs := g.Flood(origin, len(g.Members()), nil, stats.MsgUpdate); fs.Reached != 0 || fs.Messages != 0 {
			t.Errorf("peer %d (non-member 299, or offline) flooded the subnet: %+v", origin, fs)
		}
	}
	if got := net.Counters().Total(); got != 0 {
		t.Errorf("floods that reached nobody filed %d messages", got)
	}
}

func TestSubnetFloodMatch(t *testing.T) {
	pi, net, _ := testIndex(t, ttlConfig(), 6)
	key, g := k("m"), subnetOf(t, pi, "m")
	order := reachable(g, g.Members()[0])
	want := order[len(order)-1]
	// Only the member farthest from the origin holds the key.
	pi.caches[want].Put(key, core.Value(9), core.NeverExpires, net.Round())
	fs := g.Flood(g.Members()[0], len(g.Members()), func(p netsim.PeerID) bool {
		_, ok := pi.caches[p].Get(key, net.Round())
		return ok
	}, stats.MsgReplicaFlood)
	if !fs.Found || fs.FoundAt != want {
		t.Errorf("flood match failed: %+v, want member %d", fs, want)
	}
	if got := net.Counters().Get(stats.MsgReplicaFlood); got != int64(fs.Messages) {
		t.Errorf("%d replica-flood messages filed, flood sent %d", got, fs.Messages)
	}
}
