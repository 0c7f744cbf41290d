package replica

import (
	"context"
	"sync"
	"sync/atomic"
)

// Fanout runs one write leg per address concurrently. It was the insert
// and reset-on-hit refresh fan-out of the live replica scheme; the node's
// engine no longer calls it — it sends every leg from the calling goroutine
// and then collects the replies under one deadline, with no goroutine per
// leg — and it stays as the load benchmark's replica.fanout3_us row. Each leg
// receives the caller's context (callers derive per-leg deadlines from it,
// e.g. capping at their RPC timeout) and reports success; Fanout returns
// how many legs succeeded. Once ctx is done, remaining legs are not
// started — a cancelled request stops paying for replication it no longer
// needs — but legs already in flight run to their own deadline.
//
// The last leg runs on the calling goroutine: Fanout waits for every leg
// anyway, so a goroutine of its own would buy no overlap, and a fresh
// goroutine's stack grows (runtime.newstack) on its way down into the
// socket write. A single-member set therefore spawns nothing.
func Fanout(ctx context.Context, addrs []string, leg func(ctx context.Context, addr string) bool) int {
	var ok atomic.Int32
	var wg sync.WaitGroup
	run := func(addr string) {
		if leg(ctx, addr) {
			ok.Add(1)
		}
	}
	for i, addr := range addrs {
		if ctx.Err() != nil {
			break
		}
		if i == len(addrs)-1 {
			run(addr)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(addr)
		}()
	}
	wg.Wait()
	return int(ok.Load())
}
