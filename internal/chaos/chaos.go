// Package chaos is the fault-injection and scale-emulation layer: a
// transport.Transport wrapper that subjects every call to deterministic,
// seed-driven network misbehavior — per-link drop probability, latency
// (base + jitter), duplication, and named partition schedules
// (split, heal, asymmetric one-way loss) — plus a Scenario type that
// scripts timed fault phases and a Fleet that drives hundreds to thousands
// of live node.Node instances in-process — a node.Cluster booted over the
// wrapped memory transport.
//
// The wrapper is transport-agnostic: the in-process fleet wraps
// transport.Memory, and pdht-node's -chaos-* flags wrap TCP with the same
// schedule — partition groups are pure hashes of addresses (GroupOf), so
// fifty containers apply an identical split with no coordination.
//
// Fault semantics, per call:
//
//   - A cut or dropped message BLACKHOLES: the call blocks until its
//     context expires (exactly what a lost packet looks like to the
//     caller), or fails immediately with transport.ErrUnreachable when the
//     context has no deadline. Drop is applied independently to the
//     request and the response leg, so a link with drop p loses calls at
//     rate 1-(1-p)².
//   - Latency sleeps base+jitter·u before delivery; the jitter genuinely
//     reorders a message against concurrently in-flight calls on the same
//     link.
//   - Duplicate delivers the request twice (the second response is
//     discarded) — inserts and refreshes must be idempotent under it.
//
// Determinism: every (src, dst) link draws from its own PCG stream seeded
// from (Seed, hash(src), hash(dst)), so a given seed produces the same
// per-link fault sequence run to run; what stays scheduler-dependent is
// only how concurrent calls interleave. Self-calls (src == dst) are
// exempt from all faults — loopback does not traverse the network.
package chaos

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/transport"
)

// Config is the baseline fault profile of a Network — the knobs applied to
// every inter-node message before any Phase overlay.
type Config struct {
	// Seed drives every per-link random stream. Zero means 1.
	Seed uint64
	// Drop is the per-message drop probability per direction.
	Drop float64
	// LatencyBase/LatencyJitter delay each message by base + jitter·u,
	// u uniform in [0,1).
	LatencyBase   time.Duration
	LatencyJitter time.Duration
	// Duplicate is the probability a request is delivered twice.
	Duplicate float64
}

// Network wraps an inner transport with the fault layer and the partition
// state. One Network models one emulated network; per-node transports are
// obtained from Node(self) so each call knows its source.
type Network struct {
	inner transport.Transport
	seed  uint64

	mu       sync.RWMutex
	base     Config
	phase    Phase
	groupCnt int  // 0 = no partition
	oneWay   bool // with groupCnt: only traffic INTO group 0 is cut
}

// New wraps inner with a fault layer configured by cfg.
func New(inner transport.Transport, cfg Config) *Network {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Network{inner: inner, seed: cfg.Seed, base: cfg}
}

// GroupOf returns addr's partition group in a k-way split: a pure hash of
// the address, so every process — in-memory fleet node or container —
// computes the same assignment with no coordination.
func GroupOf(addr string, k int) int {
	if k < 2 {
		return 0
	}
	return int(uint64(keyspace.HashString("chaos-group:"+addr)) % uint64(k))
}

// SetPhase installs a fault phase: the partition mode and the phase's
// extra drop, layered over the baseline Config. A zero Phase is "healthy"
// (heal + baseline faults only).
func (n *Network) SetPhase(p Phase) {
	n.mu.Lock()
	n.phase = p
	n.groupCnt = p.Split
	n.oneWay = p.OneWay
	n.mu.Unlock()
}

// Split cuts the network into k hash-assigned groups (all cross-group
// traffic blackholes, both directions).
func (n *Network) Split(k int) { n.SetPhase(Phase{Split: k}) }

// OneWay cuts only traffic INTO group 0 of a k-way hash split: group 0
// can call out and hear replies, but no one can call in — the asymmetric
// loss that exercises gossip's refutation path.
func (n *Network) OneWay(k int) { n.SetPhase(Phase{Split: k, OneWay: true}) }

// Heal clears the partition and any phase faults; baseline faults remain.
func (n *Network) Heal() { n.SetPhase(Phase{}) }

// linkRule is the snapshot of fault parameters governing one call.
type linkRule struct {
	cut       bool
	drop      float64
	base      time.Duration
	jitter    time.Duration
	duplicate float64
}

// ruleFor computes the current rule for the src→dst direction.
func (n *Network) ruleFor(src, dst string) linkRule {
	n.mu.RLock()
	defer n.mu.RUnlock()
	r := linkRule{
		drop:      combineP(n.base.Drop, n.phase.Drop),
		base:      n.base.LatencyBase,
		jitter:    n.base.LatencyJitter,
		duplicate: n.base.Duplicate,
	}
	if n.groupCnt >= 2 {
		gs, gd := GroupOf(src, n.groupCnt), GroupOf(dst, n.groupCnt)
		if gs != gd && (!n.oneWay || gd == 0) {
			r.cut = true
		}
	}
	return r
}

// combineP composes two independent drop probabilities.
func combineP(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// Node returns the transport facade for one node: Serve passes through to
// the inner transport; Dial wraps each client with the fault layer, with
// self recorded as the call source.
func (n *Network) Node(self string) transport.Transport {
	return &nodeFacade{net: n, self: self}
}

type nodeFacade struct {
	net  *Network
	self string
}

func (f *nodeFacade) Serve(addr string, h transport.Handler) (transport.Server, error) {
	return f.net.inner.Serve(addr, h)
}

func (f *nodeFacade) Dial(addr string) (transport.Client, error) {
	inner, err := f.net.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	if addr == f.self {
		return inner, nil // loopback is exempt
	}
	h1, h2 := uint64(keyspace.HashString(f.self)), uint64(keyspace.HashString(addr))
	return &linkClient{
		inner: inner, net: f.net, src: f.self, dst: addr,
		rng: rand.New(rand.NewPCG(f.net.seed^h1, h2|1)),
	}, nil
}

// linkClient applies the fault layer to one directed link. The rng is
// owned by the client (one per dialed connection — the node's pool keeps
// one per destination), guarded by its own mutex so concurrent calls draw
// from a single deterministic stream.
type linkClient struct {
	inner transport.Client
	net   *Network
	src   string
	dst   string

	mu  sync.Mutex
	rng *rand.Rand
}

// draws is one call's worth of random decisions, taken in a fixed order so
// the stream stays aligned regardless of which faults are active.
type draws struct {
	dropReq, dropResp float64
	latency           float64
	duplicate         float64
}

func (c *linkClient) draw() draws {
	c.mu.Lock()
	defer c.mu.Unlock()
	return draws{
		dropReq:   c.rng.Float64(),
		dropResp:  c.rng.Float64(),
		latency:   c.rng.Float64(),
		duplicate: c.rng.Float64(),
	}
}

// blackhole models a lost message: the caller waits out its deadline.
func blackhole(ctx context.Context, src, dst string) (transport.Response, error) {
	if _, ok := ctx.Deadline(); !ok {
		return transport.Response{}, fmt.Errorf("%w: %s->%s (chaos drop)", transport.ErrUnreachable, src, dst)
	}
	<-ctx.Done()
	return transport.Response{}, ctx.Err()
}

// Send takes the call's rule and random draws on the caller, in issue
// order, so the link's stream stays aligned with the order requests were
// sent; delivery — latency, blackholes, the response leg — runs on a
// goroutine of its own.
func (c *linkClient) Send(ctx context.Context, req transport.Request) transport.Pending {
	rule := c.net.ruleFor(c.src, c.dst)
	d := c.draw()
	return transport.Go(ctx, func() (transport.Response, error) { return c.deliver(ctx, req, rule, d) })
}

func (c *linkClient) Call(ctx context.Context, req transport.Request) (transport.Response, error) {
	return c.Send(ctx, req).Wait()
}

// deliver carries one request across the link, under the faults that rule
// and d decided for it.
func (c *linkClient) deliver(ctx context.Context, req transport.Request, rule linkRule, d draws) (transport.Response, error) {
	if rule.cut || d.dropReq < rule.drop {
		return blackhole(ctx, c.src, c.dst)
	}
	delay := rule.base + time.Duration(d.latency*float64(rule.jitter))
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return transport.Response{}, ctx.Err()
		}
	}
	if d.duplicate < rule.duplicate {
		// Second delivery of the same request; its response is discarded.
		// The receiver cannot tell it from a client retry.
		go func() { _, _ = c.inner.Call(ctx, req) }()
	}
	resp, err := c.inner.Call(ctx, req)
	if err != nil {
		return resp, err
	}
	if d.dropResp < rule.drop {
		// The request was served but the response vanished: the caller
		// times out, the side effect stands — the at-least-once ambiguity
		// real networks force on every RPC layer.
		return blackhole(ctx, c.src, c.dst)
	}
	return resp, nil
}

func (c *linkClient) Close() error { return c.inner.Close() }
