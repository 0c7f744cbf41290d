package replica

import (
	"context"
	"testing"
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
