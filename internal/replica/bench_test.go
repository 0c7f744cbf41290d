package replica

import (
	"context"
	"testing"

	"pdht/internal/keyspace"
)

func BenchmarkFanout(b *testing.B) {
	// What the reset-on-hit refresh of every index hit paid while the engine
	// fanned out through Fanout: a 3-member set. The legs do nothing, so
	// this is Fanout's own cost.
	set := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Fanout(ctx, set, func(context.Context, string) bool { return true }) != len(set) {
			b.Fatal("a leg went missing")
		}
	}
}

func BenchmarkPlanRepair(b *testing.B) {
	// 256 held entries across a 6→5 member transition, the handoff
	// planner's working size in the cluster tests.
	old := benchView{set: []string{"a", "b", "c"}, members: "abcdef"}
	next := benchView{set: []string{"a", "b", "d"}, members: "abdef"}
	entries := make([]Entry, 256)
	for i := range entries {
		entries[i] = Entry{Key: keyspace.Key(uint64(i) * 0x9e3779b97f4a7c15), Value: uint64(i), TTL: 50}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlanRepair(old, next, "a", entries)
	}
}

// benchView is a minimal repair-planner View for benchmarks.
type benchView struct {
	set     []string
	members string
}

func (v benchView) Replicas(keyspace.Key) []string { return v.set }
func (v benchView) Contains(addr string) bool {
	for i := 0; i < len(v.members); i++ {
		if string(v.members[i]) == addr {
			return true
		}
	}
	return false
}
