package netsim

import (
	"fmt"
	"sync"

	"pdht/internal/stats"
)

// numClasses sizes the per-class array: stats.MsgControl is the last class
// (TestCountersCoverEveryClass holds that against stats.Classes).
const numClasses = stats.MsgControl + 1

// Counters accumulates message counts by class. The zero value is ready to
// use. Counters is safe for concurrent use.
type Counters struct {
	mu     sync.Mutex
	counts [numClasses]int64
}

// Add records n messages of class c. n may be any non-negative count;
// negative values are rejected with a panic because a message, once sent,
// cannot be unsent.
func (ct *Counters) Add(c stats.MsgClass, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative message count %d for class %s", n, c))
	}
	if c < 0 || c >= numClasses {
		panic(fmt.Sprintf("netsim: unknown message class %d", int(c)))
	}
	ct.mu.Lock()
	ct.counts[c] += n
	ct.mu.Unlock()
}

// Get returns the accumulated count for class c.
func (ct *Counters) Get(c stats.MsgClass) int64 {
	if c < 0 || c >= numClasses {
		panic(fmt.Sprintf("netsim: unknown message class %d", int(c)))
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.counts[c]
}

// Total returns the sum over all classes.
func (ct *Counters) Total() int64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	var t int64
	for _, v := range ct.counts {
		t += v
	}
	return t
}

// Snapshot returns a copy of the per-class counts, indexed by stats.MsgClass.
func (ct *Counters) Snapshot() map[stats.MsgClass]int64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make(map[stats.MsgClass]int64, numClasses)
	for i, v := range ct.counts {
		out[stats.MsgClass(i)] = v
	}
	return out
}
