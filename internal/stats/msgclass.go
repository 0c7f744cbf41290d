// Package stats is the cost vocabulary the live node and the simulator both
// speak, plus the reporting helper the experiment and CLI layers share:
// plain-text, CSV and JSON table rendering (Table).
//
// The paper's unit of cost is the number of messages sent per round (one
// round = one second), broken down by what the message was for. MsgClass
// enumerates those purposes, so a live node's Report.Messages and a
// simulation run's counters (netsim.Counters) can both be compared
// line-by-line against the analytical model; Diff and FormatSnapshot work
// on the per-class maps either side produces.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// MsgClass identifies what a simulated message was sent for. The classes
// mirror the cost components of the paper's model: unstructured search
// (cSUnstr), index search (cSIndx), routing-table maintenance (cRtn), update
// propagation (cUpd) and replica-subnet flooding (the repl·dup2 term of
// cSIndx2).
type MsgClass int

const (
	// MsgBroadcast counts messages of a search in the unstructured
	// network (flooding or random walks) — the cSUnstr component.
	MsgBroadcast MsgClass = iota
	// MsgIndexLookup counts routing hops of a DHT lookup — cSIndx.
	MsgIndexLookup
	// MsgMaintenance counts routing-table probe messages — cRtn.
	MsgMaintenance
	// MsgUpdate counts update/insert messages between replicas — cUpd.
	MsgUpdate
	// MsgReplicaFlood counts messages flooded through the replica
	// subnetwork during a query or insert — the repl·dup2 term.
	MsgReplicaFlood
	// MsgTopK counts OpTopK probe legs of distributed top-k queries —
	// the numPeers·TopKRound·TopKProbe traffic term added to eq. 17.
	MsgTopK
	// MsgControl counts everything else (joins, key transfers, eviction
	// notices). The analytical model has no such term; keeping them
	// separate makes the comparison honest.
	MsgControl

	numMsgClasses
)

// String returns the short label used in tables and logs.
func (c MsgClass) String() string {
	switch c {
	case MsgBroadcast:
		return "broadcast"
	case MsgIndexLookup:
		return "lookup"
	case MsgMaintenance:
		return "maintenance"
	case MsgUpdate:
		return "update"
	case MsgReplicaFlood:
		return "replica-flood"
	case MsgTopK:
		return "topk"
	case MsgControl:
		return "control"
	default:
		return fmt.Sprintf("msgclass(%d)", int(c))
	}
}

// MarshalText renders the class as its short label, so JSON maps keyed by
// MsgClass (Report.Messages) read "broadcast", not "0".
func (c MsgClass) MarshalText() ([]byte, error) {
	if c < 0 || c >= numMsgClasses {
		return nil, fmt.Errorf("stats: unknown message class %d", int(c))
	}
	return []byte(c.String()), nil
}

// UnmarshalText parses the short label back, completing the round trip.
func (c *MsgClass) UnmarshalText(text []byte) error {
	for i := MsgClass(0); i < numMsgClasses; i++ {
		if i.String() == string(text) {
			*c = i
			return nil
		}
	}
	return fmt.Errorf("stats: unknown message class %q", text)
}

// Classes lists all message classes in display order.
func Classes() []MsgClass {
	out := make([]MsgClass, numMsgClasses)
	for i := range out {
		out[i] = MsgClass(i)
	}
	return out
}

// Diff returns the per-class difference cur − prev. It is used to compute
// per-round rates from two snapshots of cumulative counters.
func Diff(cur, prev map[MsgClass]int64) map[MsgClass]int64 {
	out := make(map[MsgClass]int64, len(cur))
	for c, v := range cur {
		out[c] = v - prev[c]
	}
	return out
}

// FormatSnapshot renders a snapshot as "class=count" pairs in display order,
// omitting zero classes. Useful in test failure messages.
func FormatSnapshot(snap map[MsgClass]int64) string {
	keys := make([]MsgClass, 0, len(snap))
	for c := range snap {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, c := range keys {
		if snap[c] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c, snap[c])
	}
	if b.Len() == 0 {
		return "(no messages)"
	}
	return b.String()
}
