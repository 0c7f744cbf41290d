package netsim

import (
	"sync"
	"testing"

	"pdht/internal/stats"
)

func TestCountersAddGet(t *testing.T) {
	var c Counters
	c.Add(stats.MsgBroadcast, 5)
	c.Add(stats.MsgBroadcast, 1)
	c.Add(stats.MsgIndexLookup, 3)
	if got := c.Get(stats.MsgBroadcast); got != 6 {
		t.Errorf("Get(MsgBroadcast) = %d, want 6", got)
	}
	if got := c.Get(stats.MsgIndexLookup); got != 3 {
		t.Errorf("Get(MsgIndexLookup) = %d, want 3", got)
	}
	if got := c.Get(stats.MsgUpdate); got != 0 {
		t.Errorf("Get(MsgUpdate) = %d, want 0", got)
	}
	if got := c.Total(); got != 9 {
		t.Errorf("Total() = %d, want 9", got)
	}
}

func TestCountersNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with negative count did not panic")
		}
	}()
	var c Counters
	c.Add(stats.MsgBroadcast, -1)
}

func TestCountersUnknownClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with unknown class did not panic")
		}
	}()
	var c Counters
	c.Add(stats.MsgClass(99), 1)
}

func TestCountersSnapshotAndDiff(t *testing.T) {
	var c Counters
	c.Add(stats.MsgBroadcast, 10)
	s1 := c.Snapshot()
	c.Add(stats.MsgBroadcast, 5)
	c.Add(stats.MsgUpdate, 2)
	s2 := c.Snapshot()
	d := stats.Diff(s2, s1)
	if d[stats.MsgBroadcast] != 5 {
		t.Errorf("Diff broadcast = %d, want 5", d[stats.MsgBroadcast])
	}
	if d[stats.MsgUpdate] != 2 {
		t.Errorf("Diff update = %d, want 2", d[stats.MsgUpdate])
	}
	if d[stats.MsgMaintenance] != 0 {
		t.Errorf("Diff maintenance = %d, want 0", d[stats.MsgMaintenance])
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(stats.MsgBroadcast, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(stats.MsgBroadcast); got != workers*per {
		t.Errorf("concurrent count = %d, want %d", got, workers*per)
	}
}

func TestCountersCoverEveryClass(t *testing.T) {
	var c Counters
	if got, want := len(c.Snapshot()), len(stats.Classes()); got != want {
		t.Fatalf("Counters holds %d classes, stats.Classes() lists %d", got, want)
	}
	for _, class := range stats.Classes() {
		c.Add(class, 1)
	}
}
