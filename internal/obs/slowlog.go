package obs

import (
	"sync"
	"time"
)

// SlowLog is the ring-buffered slow-query log: finished traces whose
// duration crossed the threshold, newest overwriting oldest. It answers the
// "what was slow during that churn storm" question without storing every
// query — the ring bounds memory, the threshold bounds write traffic.
type SlowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	ring  []QueryTrace
	next  int
	count int    // live entries in the ring
	total uint64 // traces ever recorded (ring overflow visible)
}

// NewSlowLog returns a log keeping the last capacity traces at or above
// threshold. Capacity below 1 is clamped to 1.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, ring: make([]QueryTrace, capacity)}
}

// Record admits t if it crossed the threshold, reporting whether it did.
func (l *SlowLog) Record(t QueryTrace) bool {
	if t.Duration < l.threshold {
		return false
	}
	l.mu.Lock()
	l.ring[l.next] = t
	l.next = (l.next + 1) % len(l.ring)
	if l.count < len(l.ring) {
		l.count++
	}
	l.total++
	l.mu.Unlock()
	return true
}

// Total returns how many traces were ever recorded, including those the
// ring has since overwritten.
func (l *SlowLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dump returns the retained traces, newest first.
func (l *SlowLog) Dump() []QueryTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryTrace, 0, l.count)
	for i := 1; i <= l.count; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}
