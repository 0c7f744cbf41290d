package replica

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanoutRunsAllLegsConcurrently(t *testing.T) {
	// Every leg blocks until all legs have started: serial execution would
	// deadlock, so completing at all proves concurrency.
	addrs := []string{"a", "b", "c", "d"}
	var started sync.WaitGroup
	started.Add(len(addrs))
	done := make(chan struct{})
	ok := Fanout(context.Background(), addrs, func(ctx context.Context, addr string) bool {
		started.Done()
		started.Wait()
		return addr != "c"
	})
	close(done)
	if ok != 3 {
		t.Fatalf("Fanout reported %d successful legs, want 3", ok)
	}
}

func TestFanoutStopsSpawningWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var legs atomic.Int32
	ok := Fanout(ctx, []string{"a", "b", "c"}, func(ctx context.Context, addr string) bool {
		legs.Add(1)
		return true
	})
	if legs.Load() != 0 || ok != 0 {
		t.Fatalf("cancelled Fanout ran %d legs (ok %d), want none", legs.Load(), ok)
	}

	// Legs already in flight keep their context: cancellation reaches them
	// through ctx, not by abandonment.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var sawCancel atomic.Bool
	var once sync.Once
	Fanout(ctx2, []string{"a", "b"}, func(ctx context.Context, addr string) bool {
		once.Do(cancel2)
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(2 * time.Second):
		}
		return false
	})
	if !sawCancel.Load() {
		t.Fatal("in-flight leg never observed the cancellation")
	}
}
