// Package simcore is the simulator's side of the paper's contribution: the
// query-adaptive partial DHT of Section 5 over simulated peers. PartialIndex
// is the distributed index — one core.Cache per active peer of a dht.Trie,
// wired together by replica subnetworks — and PDHT the selection algorithm
// on top of it. It asks the overlay only to route, to name a key's replica
// group and to maintain itself (the paper: "generic enough such that it
// can be used for any of the DHT based systems"). A replica subnetwork is
// an overlay.Graph over one replica group's members (§3.3.2, [DaHa03]),
// carrying the update floods of eq. 9 and the query floods of eq. 16.
//
// Nothing here is reachable from a live node: internal/node runs the same
// selection algorithm over real peers with core.Cache, the member ring's
// replica sets and internal/adapt, and `make live-deps` keeps it that way.
package simcore

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/core"
	"pdht/internal/dht"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/overlay"
	"pdht/internal/stats"
)

// IndexConfig parameterizes the distributed partial index.
type IndexConfig struct {
	// KeyTtl is the expiration time, in rounds, attached to inserted
	// keys. Zero or negative means entries never expire — the
	// index-everything mode of the Section-4 baselines. A positive KeyTtl
	// is the selection algorithm, which also floods a miss through the
	// replica subnetwork (§5, the cSIndx2 = cSIndx + repl·dup2 of eq. 16:
	// TTL expiry leaves replicas poorly synchronized, which the
	// proactively updated baselines are not) and resets an entry's
	// expiration time on every hit, its defining rule.
	KeyTtl int
	// PeerCapacity is each active peer's cache size (the paper's stor).
	PeerCapacity int
}

// subnetDegree is the gossip degree of each replica subnetwork. Degree 1
// yields mean degree ≈ 2 and a flood duplication near the paper's
// dup2 = 1.8.
const subnetDegree = 1

func (c IndexConfig) validate() error {
	if c.PeerCapacity < 1 {
		return fmt.Errorf("simcore: PeerCapacity %d must be positive", c.PeerCapacity)
	}
	return nil
}

// LookupResult reports one index search.
type LookupResult struct {
	// RouteOK reports whether routing reached a responsible peer at all.
	RouteOK bool
	// Hit reports whether the key was found live in the index.
	Hit bool
	// Value is the stored value when Hit.
	Value core.Value
	// AnsweredBy is the peer that held the live entry when Hit.
	AnsweredBy netsim.PeerID
	// RouteHops and FloodMsgs break down the message cost (also recorded
	// on the network counters).
	RouteHops int
	FloodMsgs int
}

// PartialIndex is the distributed index: per-peer TTL caches over the
// active peers of a DHT, wired together by replica subnetworks for gossip.
// All methods count their messages on the underlying network.
type PartialIndex struct {
	net *netsim.Network
	idx *dht.Trie
	cfg IndexConfig
	rng *rand.Rand

	caches  []*core.Cache          // by peer ID; nil at inactive peers
	subnets map[int]*overlay.Graph // by trie leaf: one per replica group
	// liveUntil tracks, per key, the latest expiry of any replica — the
	// index-size bookkeeping behind Fig. 3's "index size" series.
	liveUntil map[keyspace.Key]int
}

// NewPartialIndex builds the index layer over a DHT.
func NewPartialIndex(net *netsim.Network, idx *dht.Trie, cfg IndexConfig, rng *rand.Rand) (*PartialIndex, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pi := &PartialIndex{
		net:       net,
		idx:       idx,
		cfg:       cfg,
		rng:       rng,
		caches:    make([]*core.Cache, net.Size()),
		subnets:   make(map[int]*overlay.Graph),
		liveUntil: make(map[keyspace.Key]int),
	}
	for _, p := range idx.ActivePeers() {
		c, err := core.NewCache(cfg.PeerCapacity)
		if err != nil {
			return nil, err
		}
		pi.caches[p] = c
	}
	return pi, nil
}

// DHT exposes the underlying structured overlay.
func (pi *PartialIndex) DHT() *dht.Trie { return pi.idx }

// SetKeyTtl changes the TTL attached to future inserts and refreshes —
// the knob the adaptive control plane (adapt.Tuner) turns. Entries
// already in the index keep their current expiry until their next hit.
// ttl ≤ 0 means future entries never expire.
func (pi *PartialIndex) SetKeyTtl(ttl int) { pi.cfg.KeyTtl = ttl }

// expiry converts the configured TTL into an absolute round.
func (pi *PartialIndex) expiry(now int) int {
	if pi.cfg.KeyTtl <= 0 {
		return core.NeverExpires
	}
	return now + pi.cfg.KeyTtl
}

// subnetFor returns (building lazily) the replica subnetwork of key's
// group: one per trie leaf.
func (pi *PartialIndex) subnetFor(key keyspace.Key) (*overlay.Graph, error) {
	leaf := pi.idx.Leaf(key)
	if s, ok := pi.subnets[leaf]; ok {
		return s, nil
	}
	s, err := overlay.NewRandomGraph(pi.net, pi.idx.ReplicaGroup(key), subnetDegree, pi.rng)
	if err != nil {
		return nil, err
	}
	pi.subnets[leaf] = s
	return s, nil
}

// Lookup searches the index for key on behalf of from: route through the
// DHT, check the responsible peer's cache, and — when entries expire —
// propagate the query through the replica subnetwork before giving up.
// A hit resets an expiring entry's TTL.
func (pi *PartialIndex) Lookup(from netsim.PeerID, key keyspace.Key) LookupResult {
	res := LookupResult{}
	now := pi.net.Round()
	rt := pi.idx.Route(from, key, pi.rng)
	res.RouteHops = rt.Hops
	if !rt.OK {
		return res
	}
	res.RouteOK = true
	if v, ok := pi.caches[rt.Responsible].Get(key, now); ok {
		res.Hit, res.Value, res.AnsweredBy = true, v, rt.Responsible
		pi.noteHit(key, rt.Responsible, now)
		return res
	}
	if pi.cfg.KeyTtl <= 0 {
		return res
	}
	subnet, err := pi.subnetFor(key)
	if err != nil {
		return res
	}
	fs := subnet.Flood(rt.Responsible, len(subnet.Members()), func(p netsim.PeerID) bool {
		_, ok := pi.caches[p].Get(key, now)
		return ok
	}, stats.MsgReplicaFlood)
	res.FloodMsgs = fs.Messages
	if fs.Found {
		v, _ := pi.caches[fs.FoundAt].Get(key, now)
		res.Hit, res.Value, res.AnsweredBy = true, v, fs.FoundAt
		pi.noteHit(key, fs.FoundAt, now)
	}
	return res
}

// noteHit applies the TTL reset at the answering peer.
func (pi *PartialIndex) noteHit(key keyspace.Key, at netsim.PeerID, now int) {
	if pi.cfg.KeyTtl <= 0 {
		return
	}
	exp := pi.expiry(now)
	pi.caches[at].Refresh(key, exp, now)
	if exp > pi.liveUntil[key] {
		pi.liveUntil[key] = exp
	}
}

// InsertResult reports one index insert.
type InsertResult struct {
	// OK reports whether the entry reached at least one online replica.
	OK bool
	// Stored is how many peers installed the entry.
	Stored int
	// RouteHops and GossipMsgs break down the cost.
	RouteHops  int
	GossipMsgs int
}

// Insert routes key to its responsible peer and gossips the entry through
// the replica subnetwork — the insert leg of the selection algorithm (the
// second cSIndx2 of eq. 17) — and installs it with the configured TTL at
// every online member of the group, including members the rumor did not
// reach: a degree-1 graph over 20 members is disconnected about 18 % of
// the time, and a flood from one member reaches about 92 % of the group
// on average, so the install idealizes the gossip it pays for.
func (pi *PartialIndex) Insert(from netsim.PeerID, key keyspace.Key, value core.Value) InsertResult {
	return pi.write(from, key, value, stats.MsgReplicaFlood)
}

// Update is Insert with its gossip filed as update traffic — the proactive
// consistency cost (cUpd, eq. 9) the index-everything baseline pays for
// every key update.
func (pi *PartialIndex) Update(from netsim.PeerID, key keyspace.Key, value core.Value) InsertResult {
	return pi.write(from, key, value, stats.MsgUpdate)
}

// write is Insert and Update: route, flood the group under class, and
// install at every online member.
func (pi *PartialIndex) write(from netsim.PeerID, key keyspace.Key, value core.Value, class stats.MsgClass) InsertResult {
	res := InsertResult{}
	now := pi.net.Round()
	rt := pi.idx.Route(from, key, pi.rng)
	res.RouteHops = rt.Hops
	if !rt.OK {
		return res
	}
	subnet, err := pi.subnetFor(key)
	if err != nil {
		return res
	}
	fs := subnet.Flood(rt.Responsible, len(subnet.Members()), nil, class)
	res.GossipMsgs = fs.Messages
	exp := pi.expiry(now)
	for _, p := range subnet.Members() {
		if !pi.net.Online(p) {
			continue
		}
		if pi.caches[p].Put(key, value, exp, now) {
			res.Stored++
		}
	}
	res.OK = res.Stored > 0
	if res.OK && exp > pi.liveUntil[key] {
		pi.liveUntil[key] = exp
	}
	return res
}

// Seed installs key at every member of its replica group without sending
// messages: initial state for the index-everything and oracle baselines
// (their indexes exist before the measurement window opens).
func (pi *PartialIndex) Seed(key keyspace.Key, value core.Value) error {
	subnet, err := pi.subnetFor(key)
	if err != nil {
		return err
	}
	now := pi.net.Round()
	exp := pi.expiry(now)
	for _, p := range subnet.Members() {
		pi.caches[p].Put(key, value, exp, now)
	}
	if exp > pi.liveUntil[key] {
		pi.liveUntil[key] = exp
	}
	return nil
}

// IndexedKeys returns the number of keys currently live in the index — the
// quantity eq. 15 predicts in expectation. Long-expired bookkeeping is
// pruned as a side effect.
func (pi *PartialIndex) IndexedKeys() int {
	now := pi.net.Round()
	n := 0
	for key, exp := range pi.liveUntil {
		if exp <= now {
			delete(pi.liveUntil, key)
			continue
		}
		n++
	}
	return n
}

// ExactIndexedKeys counts the distinct keys with at least one live replica
// by scanning every cache — the ground truth IndexedKeys approximates
// (IndexedKeys can overcount when capacity evictions removed a key's last
// replica before its bookkeeping expiry). Linear in total cache content;
// meant for tests and occasional measurements.
func (pi *PartialIndex) ExactIndexedKeys() int {
	now := pi.net.Round()
	live := make(map[keyspace.Key]bool)
	for _, c := range pi.caches {
		if c == nil {
			continue
		}
		for _, key := range c.Keys(now) {
			live[key] = true
		}
	}
	return len(live)
}

// Maintain runs one round of DHT routing-table probing.
func (pi *PartialIndex) Maintain() dht.MaintenanceStats {
	return pi.idx.Maintain(pi.rng)
}
