package node

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdht/internal/gossip"
	"pdht/internal/keyspace"
	"pdht/internal/obs"
	"pdht/internal/topk"
	"pdht/internal/transport"
)

// RemoteConfig parameterizes a non-serving client. Repl MUST match the
// cluster's: the view hash only fingerprints the membership list, so a
// client with a different replica arithmetic would mis-route without any
// peer noticing.
type RemoteConfig struct {
	// Seeds are cluster members to bootstrap (and re-bootstrap) the
	// membership view from. At least one is required.
	Seeds []string
	// Repl mirrors the cluster's Config.Repl.
	Repl int
	// KeyTtl is the expiration time, in rounds, this client attaches to
	// its inserts and refreshes. Default 120.
	KeyTtl int
	// CallTimeout bounds each outbound RPC. Default 2s.
	CallTimeout time.Duration
	// TraceHook, when set, receives every finished query's trace — the
	// same per-leg record a member's hook gets: probes, the broadcast, the
	// insert, refreshes, read repairs and any stale-view re-sync. Called
	// synchronously at the end of Query; keep it cheap.
	TraceHook func(obs.QueryTrace)
	// TraceSampling is the fraction of traced queries whose trace also
	// propagates over the wire, stitching server-side spans from the
	// probed members into the QueryTrace. Zero — the zero-value default,
	// unlike the serving node's DefaultConfig — keeps traces client-side;
	// the public client layer sets 1.0 unless WithTraceSampling overrides.
	TraceSampling float64
}

// setDefaults fills zero fields with the serving node's defaults.
func (c *RemoteConfig) setDefaults() {
	d := DefaultConfig()
	if c.Repl == 0 {
		c.Repl = d.Repl
	}
	if c.KeyTtl == 0 {
		c.KeyTtl = d.KeyTtl
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = d.CallTimeout
	}
}

func (c RemoteConfig) validate() error {
	if len(c.Seeds) == 0 {
		return fmt.Errorf("node: remote client needs at least one seed")
	}
	return validateShared(c.Repl, c.KeyTtl, c.CallTimeout, c.TraceSampling)
}

// RemoteClient speaks the wire protocol to an existing cluster without
// joining it: it serves nothing, gossips nothing, and never appears in any
// membership view. It bootstraps the member list with one anti-entropy
// fetch from a seed (a GossipSync with no sender identity, which the
// receiving member answers without adopting the asker), builds the same
// ring view the members run, and resolves queries, batches and top-k with
// the same engine (engine.go: Query, QueryMany, QueryTopK and ClusterReport
// are its methods) — as a host with no address of its own, so every leg is
// a wire message, and with no query stream of its own to fit, so keyTtl is
// static, every resolved key is indexed and no model prediction rides on
// its ClusterReport. What it adds to the engine is the view: Resync, and
// the stale-view recovery that installs the membership state a refusing
// peer attaches and routes again.
//
// It is the handle behind the public client package's non-serving mode.
// It takes no lock: the view and the closed flag are the engine's atomics,
// and cfg is immutable after DialRemote.
type RemoteClient struct {
	engine

	cfg RemoteConfig
}

// DialRemote connects a non-serving client to the cluster behind the
// seeds: the first reachable seed supplies the membership view. Fails with
// ErrNoMembers when no seed answers.
func DialRemote(ctx context.Context, tr transport.Transport, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &RemoteClient{
		engine: engine{
			repl:          cfg.Repl,
			staticTtl:     cfg.KeyTtl,
			callTimeout:   cfg.CallTimeout,
			traceSampling: cfg.TraceSampling,
			traceHook:     cfg.TraceHook,
			// No query stream to sketch: term weights stay uniform and the
			// plan is driven by yield history alone.
			planner: topk.NewPlanner(nil),
			pool:    newPool(tr),
			// The engine counts unconditionally; nothing scrapes a client.
			m: newNodeMetrics(obs.NewRegistry()),
		},
		cfg: cfg,
	}
	c.stale = c.staleView
	if err := c.Resync(ctx); err != nil {
		c.pool.close()
		return nil, err
	}
	return c, nil
}

// Close releases the client's connections. Idempotent.
func (c *RemoteClient) Close() error {
	c.closed.Store(true)
	c.pool.close()
	return nil
}

// staleView is the engine's stale hook: the refuser's attached membership
// state becomes the client's view and the query routes again; a refusal
// with nothing usable attached leaves the client no way to converge.
func (c *RemoteClient) staleView(resp transport.Response) staleAction {
	if resp.Gossip == nil || c.install(resp.Gossip.Updates) != nil {
		return staleFail
	}
	return staleReroute
}

// Resync refetches the membership table from any reachable peer — current
// members first, then the configured seeds — and rebuilds the view. The
// request carries no sender identity, so the answering member does not
// adopt the client into the membership.
func (c *RemoteClient) Resync(ctx context.Context) error {
	candidates := c.Members()
	seen := make(map[string]bool, len(candidates)+len(c.cfg.Seeds))
	for _, a := range candidates {
		seen[a] = true
	}
	for _, s := range c.cfg.Seeds {
		if !seen[s] {
			candidates = append(candidates, s)
		}
	}
	for _, addr := range candidates {
		resp, err := c.call(ctx, addr, transport.Request{
			Op: transport.OpGossip, Gossip: &transport.Gossip{Kind: transport.GossipSync},
		})
		if err != nil || resp.Err != "" || resp.Gossip == nil {
			if err := ctx.Err(); err != nil {
				return ctxErr(err)
			}
			continue
		}
		return c.install(resp.Gossip.Updates)
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	return ErrNoMembers
}

// install rebuilds the view from a wire membership table. Suspects count
// as alive, exactly as in the members' own views, so the hash agrees.
func (c *RemoteClient) install(updates []transport.PeerState) error {
	alive := make([]string, 0, len(updates))
	for _, u := range updates {
		if gossip.Status(u.Status) != gossip.StatusDead {
			alive = append(alive, u.Addr)
		}
	}
	if len(alive) == 0 {
		return ErrNoMembers
	}
	if c.closed.Load() {
		return ErrClosed
	}
	c.view.Store(buildView(alive, c.cfg.Repl, 0))
	return nil
}

// Publish makes key→value resolvable through the cluster's index: the
// client cannot host content (it answers no broadcasts), so it installs
// the pair at the key's replica group with KeyTtl. Like every indexed
// entry, it expires unless queries keep refreshing it — a client that
// wants its keys to outlive KeyTtl republished them or runs a member node.
// Fails with ErrNoMembers when no replica accepted the insert.
func (c *RemoteClient) Publish(ctx context.Context, key, value uint64) error {
	return c.PublishMany(ctx, []KV{{Key: key, Value: value}})
}

// PublishMany installs a batch of pairs with one OpBatch request per
// destination peer: each pair targets its replica group, items are grouped
// by destination, and a single round trip per destination carries them
// all. A pair counts as published when at least one replica stored it. Like
// Query, a publish refused as stale installs the membership state attached
// to the refusal and routes again, once.
func (c *RemoteClient) PublishMany(ctx context.Context, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ctxErr(err)
		}
		v, err := c.currentView()
		if err != nil {
			return err
		}
		err = c.publish(ctx, v, pairs)
		if err == nil || attempt > 0 {
			return err
		}
		if now, _ := c.currentView(); now == v {
			return err // no refusal installed a fresher view to route by
		}
	}
}

// publish is one routing pass of PublishMany under view v.
func (c *RemoteClient) publish(ctx context.Context, v *view, pairs []KV) error {
	groups := make(map[string][]int) // destination → indexes into pairs
	for i, p := range pairs {
		for _, addr := range v.Replicas(keyspace.Key(p.Key)) {
			groups[addr] = append(groups[addr], i)
		}
	}
	// stored: at least one replica accepted the pair; acked: at least one
	// replica answered for it at all — the line between "index refused
	// it" and "nobody reachable". Both guarded by statusMu.
	stored := make([]bool, len(pairs))
	acked := make([]bool, len(pairs))
	var statusMu sync.Mutex
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			items := make([]transport.BatchItem, len(idxs))
			for j, i := range idxs {
				items[j] = transport.BatchItem{Op: transport.OpInsert, Key: pairs[i].Key, Value: pairs[i].Value, TTL: c.cfg.KeyTtl}
			}
			results := c.batch(ctx, v, addr, items)
			if results == nil {
				return
			}
			statusMu.Lock()
			for j, i := range idxs {
				acked[i] = true
				if results[j].OK {
					stored[i] = true
				}
			}
			statusMu.Unlock()
		}(addr, idxs)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	for i, ok := range stored {
		if ok {
			continue
		}
		if acked[i] {
			return fmt.Errorf("node: no replica stored key %d (index refused it)", pairs[i].Key)
		}
		return fmt.Errorf("%w: no replica of key %d answered", ErrNoMembers, pairs[i].Key)
	}
	return nil
}
