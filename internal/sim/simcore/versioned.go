package simcore

import (
	"math/rand/v2"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// Versioned tracks per-member versions of the keys a replica group holds,
// implementing the hybrid push/pull scheme of [DaHa03]: updates are pushed
// by gossip to the online members; members that were offline pull what they
// missed when they rejoin.
type Versioned struct {
	net    *netsim.Network
	subnet *Subnet
	latest map[keyspace.Key]uint64
	have   map[netsim.PeerID]map[keyspace.Key]uint64
}

// NewVersioned returns a consistency tracker over a subnet.
func NewVersioned(net *netsim.Network, subnet *Subnet) *Versioned {
	return &Versioned{
		net:    net,
		subnet: subnet,
		latest: make(map[keyspace.Key]uint64),
		have:   make(map[netsim.PeerID]map[keyspace.Key]uint64),
	}
}

// Latest returns the newest version of key, 0 if never written.
func (v *Versioned) Latest(key keyspace.Key) uint64 { return v.latest[key] }

// VersionAt returns the version of key held at member p, 0 if none.
func (v *Versioned) VersionAt(p netsim.PeerID, key keyspace.Key) uint64 {
	return v.have[p][key]
}

// Update applies a new version of key at the given member (the responsible
// peer the index routed the writer to) and pushes it through the subnet.
// It returns the gossip cost. The caller pays the index search separately —
// eq. 9 is cUpd = (cSIndx + repl·dup2)·fUpd, and this is the repl·dup2
// part, recorded as stats.MsgUpdate.
func (v *Versioned) Update(at netsim.PeerID, key keyspace.Key) FloodStats {
	v.latest[key]++
	version := v.latest[key]
	fs := v.subnet.Flood(at, nil, stats.MsgUpdate)
	if fs.Reached == 0 {
		return fs
	}
	// Everyone the rumor reached now stores the new version.
	for _, p := range v.subnet.Members() {
		if v.net.Online(p) {
			v.set(p, key, version)
		}
	}
	return fs
}

// set records that p holds version of key.
func (v *Versioned) set(p netsim.PeerID, key keyspace.Key, version uint64) {
	m := v.have[p]
	if m == nil {
		m = make(map[keyspace.Key]uint64)
		v.have[p] = m
	}
	if version > m[key] {
		m[key] = version
	}
}

// PullSync brings a rejoining member up to date: it contacts one random
// online member (one request message, class stats.MsgUpdate; the response
// piggybacks the missed versions, per the paper's free-repair convention)
// and adopts every newer version. Returns the number of keys refreshed, or
// ok=false if no online member could serve the pull.
func (v *Versioned) PullSync(p netsim.PeerID, rng *rand.Rand) (refreshed int, ok bool) {
	if !v.subnet.Contains(p) {
		return 0, false
	}
	src, found := v.subnet.RandomOnlineMember(rng)
	if !found || src == p {
		// Only ourselves online: nothing to pull from.
		if !found {
			return 0, false
		}
	}
	v.net.Send(stats.MsgUpdate, 1)
	for key, version := range v.latest {
		if v.have[p][key] < version {
			v.set(p, key, version)
			refreshed++
		}
	}
	return refreshed, true
}

// StaleMembers returns how many members hold an outdated or missing version
// of key.
func (v *Versioned) StaleMembers(key keyspace.Key) int {
	latest := v.latest[key]
	if latest == 0 {
		return 0
	}
	stale := 0
	for _, p := range v.subnet.Members() {
		if v.have[p][key] < latest {
			stale++
		}
	}
	return stale
}
