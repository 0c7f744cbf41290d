package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pdht/internal/node"
	"pdht/internal/obs"
)

// tally accumulates what one closed-loop client saw.
type tally struct {
	lats      []time.Duration // every call's latency, untraced windows only
	calls     int
	keys      int
	failed    int // errors + unanswered + wrong value, in keys
	msgs      int // Σ QueryResult.Total()
	fromIndex int
	gated     int
	exhausted bool
	spans     []callSpan // traced windows only
}

// window is one stretch of load: the merged tallies plus what the program's
// registries and the process counters moved by while it ran.
type window struct {
	dur     time.Duration
	clients []tally
	before  obs.Snapshot
	after   obs.Snapshot
	proc    procDelta
	// invalid holds the first validity violation seen while the window
	// ran (membership shrank, a view went stale, the key set ran out).
	invalid string
}

// procDelta is the process-level movement over a window.
type procDelta struct {
	cpu            time.Duration // getrusage user+sys: cluster and clients
	allocs         uint64
	gcPause        time.Duration
	heapPeak       uint64
	goroutinesPeak int
}

// issue performs one generated call and checks every answer.
func (e *env) issue(ctx context.Context, member int, keys []uint64, t *tally) {
	var (
		one  node.QueryResult
		many []node.QueryResult
		err  error
	)
	switch {
	case len(keys) == 1 && e.w.remote:
		one, err = e.client.Query(ctx, keys[0])
	case len(keys) == 1:
		one, err = e.cluster.Node(member).Query(ctx, keys[0])
	case e.w.remote:
		many, err = e.client.QueryMany(ctx, keys)
	default:
		many, err = e.cluster.Node(member).QueryMany(ctx, keys)
	}
	if len(keys) == 1 {
		many = []node.QueryResult{one}
	}
	t.calls++
	t.keys += len(keys)
	if err != nil || len(many) != len(keys) {
		t.failed += len(keys)
		return
	}
	for i, r := range many {
		if !r.Answered || r.Value != keys[i] {
			t.failed++
		}
		t.msgs += r.Total()
		if r.FromIndex {
			t.fromIndex++
		}
		if r.InsertGated {
			t.gated++
		}
	}
}

// drive runs every generator as a closed loop for dur: each client sends
// its next call only after the previous one returned. With traced set,
// every call carries a harness-owned trace and its span is kept.
func (e *env) drive(dur time.Duration, traced bool) window {
	w := window{dur: dur, clients: make([]tally, len(e.gens))}
	w.before = e.snapshot()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	stop := make(chan struct{})
	var watch sync.WaitGroup
	var invalid atomic.Pointer[string]
	watch.Add(1)
	go func() {
		defer watch.Done()
		e.watch(stop, &w.proc, &invalid)
	}()
	cpu0 := processCPU()
	start := time.Now()

	var wg sync.WaitGroup
	for g, gen := range e.gens {
		wg.Add(1)
		go func(g int, gen *generator) {
			defer wg.Done()
			t := &w.clients[g]
			ctx := context.Background()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				member, keys, ok := gen.call()
				if !ok {
					t.exhausted = true
					return
				}
				if traced {
					e.issueTraced(ctx, start, member, keys, t)
					continue
				}
				e.issue(ctx, member, keys, t)
				t.lats = append(t.lats, time.Since(t0))
			}
		}(g, gen)
	}
	wg.Wait()
	w.dur = time.Since(start)
	cpu := processCPU() - cpu0
	close(stop)
	watch.Wait()
	w.proc.cpu = cpu

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	w.proc.allocs = ms1.Mallocs - ms0.Mallocs
	w.proc.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	w.after = e.snapshot()

	if p := invalid.Load(); p != nil {
		w.invalid = *p
	}
	for _, t := range w.clients {
		if t.exhausted && w.invalid == "" {
			w.invalid = "key set exhausted before the window ended"
		}
	}
	if d := w.delta("pdht_node_stale_views_total"); d > 0 && w.invalid == "" {
		w.invalid = fmt.Sprintf("%v stale-view refusals during the window", d)
	}
	return w
}

// processCPU is getrusage(RUSAGE_SELF) user+sys: cluster and generator.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchEvery is how often watch samples while a window runs.
const watchEvery = 250 * time.Millisecond

// watch runs beside a window and samples what cannot be differenced
// afterwards: every live member's alive count (a validity guard) and the
// process's goroutine and heap peaks.
func (e *env) watch(stop <-chan struct{}, p *procDelta, invalid *atomic.Pointer[string]) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(watchEvery)
	defer tick.Stop()
	for {
		if n := runtime.NumGoroutine(); n > p.goroutinesPeak {
			p.goroutinesPeak = n
		}
		metrics.Read(heap)
		if b := heap[0].Value.Uint64(); b > p.heapPeak {
			p.heapPeak = b
		}
		for i := 0; i < e.cluster.Size(); i++ {
			nd := e.cluster.Node(i)
			if nd == nil {
				continue // killed; the survivors' alive counts will say so
			}
			alive, _ := nd.Metrics().Snapshot().Value("pdht_gossip_members_alive")
			if int(alive) != members && invalid.Load() == nil {
				msg := fmt.Sprintf("member %d sees %d alive members, want %d", i, int(alive), members)
				invalid.Store(&msg)
			}
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// snapshot merges every member's registry with the client handle's — the
// same registries production scrapes, combined the way ClusterReport does.
func (e *env) snapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, members+1)
	for i := 0; i < e.cluster.Size(); i++ {
		if nd := e.cluster.Node(i); nd != nil {
			snaps = append(snaps, nd.Metrics().Snapshot())
		}
	}
	if e.clientReg != nil {
		snaps = append(snaps, e.clientReg.Snapshot())
	}
	return obs.Merge(snaps...)
}

// delta is how far a counter family, summed over its label sets and over
// every registry, moved during the window.
func (w window) delta(name string) float64 {
	return w.after.SumAcross(name) - w.before.SumAcross(name)
}

// totals folds the per-client counts (not their latencies or spans).
func (w window) totals() tally {
	var sum tally
	for _, t := range w.clients {
		sum.calls += t.calls
		sum.keys += t.keys
		sum.failed += t.failed
		sum.msgs += t.msgs
		sum.fromIndex += t.fromIndex
		sum.gated += t.gated
	}
	return sum
}

// endToEnd computes the steady-state end-to-end metrics of an untraced
// window (setup_s is added by the caller), every one over the whole window:
// a stall of any length, in any part of it, counts.
func (w window) endToEnd() map[string]float64 {
	sum := w.totals()
	k := float64(sum.keys)
	lats := w.latencies()
	return map[string]float64{
		"throughput_qps":       k / w.dur.Seconds(),
		"latency_p50_us":       quantile(lats, 0.50),
		"latency_p99_us":       quantile(lats, 0.99),
		"msgs_per_query":       float64(sum.msgs) / k,
		"wire_bytes_per_query": w.delta("pdht_transport_bytes_out_total") / k,
		"cpu_us_per_query":     float64(w.proc.cpu) / float64(time.Microsecond) / k,
		"fail_share":           float64(sum.failed) / k,
	}
}

// latencies returns every call's latency in the window, in microseconds,
// sorted.
func (w window) latencies() []float64 {
	var lats []float64
	for _, t := range w.clients {
		for _, d := range t.lats {
			lats = append(lats, float64(d)/float64(time.Microsecond))
		}
	}
	sort.Float64s(lats)
	return lats
}

// quantile reads q from sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
