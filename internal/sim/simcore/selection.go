package simcore

import (
	"math/rand/v2"

	"pdht/internal/core"
	"pdht/internal/keyspace"
	"pdht/internal/netsim"
)

// Broadcaster abstracts the unstructured network's search — the fallback
// for queries the index cannot answer and the discovery mechanism that
// feeds the index. internal/overlay provides the implementation; the
// interface keeps the selection algorithm independent of the topology.
type Broadcaster interface {
	// Search looks for key in the unstructured network on behalf of
	// from. It returns the value found (the content pointer a real
	// system would return) and the number of messages spent; messages
	// are also recorded on the network counters.
	Search(from netsim.PeerID, key keyspace.Key, rng *rand.Rand) (value core.Value, found bool, msgs int)
}

// QueryOutcome reports one end-to-end query through the selection
// algorithm.
type QueryOutcome struct {
	// Answered reports whether the query was resolved at all.
	Answered bool
	// FromIndex reports whether the index answered (the pIndxd events of
	// eq. 14).
	FromIndex bool
	// Value is the resolved value when Answered.
	Value core.Value
	// IndexMsgs, BroadcastMsgs and InsertMsgs break down the cost in the
	// three legs of eq. 17: cSIndx2, cSUnstr, cSIndx2.
	IndexMsgs     int
	BroadcastMsgs int
	InsertMsgs    int
	// InsertGated reports that the broadcast resolved the key but the
	// insert gate refused to index it — the per-key to-index-or-not
	// decision of §2, taken online by an adaptive tuner.
	InsertGated bool
	// RouteHops is the routing-hop part of IndexMsgs (the measured
	// eq. 7), and RouteOK whether routing reached a responsible peer.
	RouteHops int
	RouteOK   bool
}

// Total returns the query's full message cost.
func (o QueryOutcome) Total() int {
	return o.IndexMsgs + o.BroadcastMsgs + o.InsertMsgs
}

// PDHT is the query-adaptive partial DHT: the Section-5 selection algorithm
// over a distributed TTL index and an unstructured broadcaster.
//
// On every query the peer first searches the index (it cannot know whether
// the key is indexed — reason IV of §5.1). On a miss it broadcasts, and on
// broadcast success inserts the resolved key into the index with expiration
// keyTtl, so the next querier finds it cheaply. Keys that stop being
// queried silently expire.
type PDHT struct {
	index *PartialIndex
	bc    Broadcaster
	rng   *rand.Rand
	gate  func(keyspace.Key) bool
}

// NewPDHT wires the selection algorithm over an index layer and a
// broadcaster.
func NewPDHT(index *PartialIndex, bc Broadcaster, rng *rand.Rand) *PDHT {
	return &PDHT{index: index, bc: bc, rng: rng}
}

// Index exposes the underlying index layer.
func (p *PDHT) Index() *PartialIndex { return p.index }

// SetInsertGate installs the per-key to-index-or-not hook: after a broadcast
// resolves a key, the gate decides whether it enters the index at all. A nil
// gate (the default) admits every key — the paper's plain §5.1 behavior,
// where TTL expiry alone prunes the index. An adaptive control plane
// (internal/adapt) gates keys whose estimated query rate falls below fMin,
// saving the insert leg of eq. 17 for keys that would expire unqueried.
func (p *PDHT) SetInsertGate(gate func(keyspace.Key) bool) { p.gate = gate }

// Query resolves key for the peer from, following §5.1 exactly:
// index search → broadcast on miss → insert the broadcast result.
func (p *PDHT) Query(from netsim.PeerID, key keyspace.Key) QueryOutcome {
	out := QueryOutcome{}
	lr := p.index.Lookup(from, key)
	out.IndexMsgs = lr.RouteHops + lr.FloodMsgs
	out.RouteHops = lr.RouteHops
	out.RouteOK = lr.RouteOK
	if lr.Hit {
		out.Answered, out.FromIndex, out.Value = true, true, lr.Value
		return out
	}
	value, found, msgs := p.bc.Search(from, key, p.rng)
	out.BroadcastMsgs = msgs
	if !found {
		return out
	}
	out.Answered, out.Value = true, value
	if p.gate != nil && !p.gate(key) {
		out.InsertGated = true
		return out
	}
	ir := p.index.Insert(from, key, value)
	out.InsertMsgs = ir.RouteHops + ir.GossipMsgs
	return out
}
