package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pdht/internal/keyspace"
	"pdht/internal/node"
	"pdht/internal/obs"
	"pdht/internal/store"
	"pdht/internal/transport"
	"pdht/internal/zipf"
)

// Cluster shape shared by every workload and by the layer probes that
// imitate them.
const (
	members       = 5
	repl          = 3
	roundDuration = 100 * time.Millisecond
	gossipEvery   = 200 * time.Millisecond
	zipfAlpha     = 1.2
	batchSize     = 32
	// teardownWait is how long Close may take to bring the goroutine
	// count back to its pre-boot baseline before the run counts as leaky.
	teardownWait = 2 * time.Second
)

// workload is one traffic mix. The fields are what the generator and the
// cluster boot read; the name reaches neither node.Config nor the program.
// BENCHMARK.json records why each one exists.
type workload struct {
	name string
	// remote drives the client-only RemoteClient engine; otherwise each
	// call is issued at a seeded-random member through the Node engine.
	remote bool
	// batch is the number of keys per call (1 = Query, >1 = QueryMany).
	batch int
	// keys is the published key-set size; fresh means every query takes a
	// never-seen key from the set instead of a Zipf draw, so keys is then
	// a per-second rate the set is sized from.
	keys  int
	fresh bool
	// prewarm queries every key once during set-up so the index holds it.
	prewarm  bool
	durable  bool
	adaptive bool
	keyTtl   int
	capacity int
}

var workloads = []workload{
	{
		name: "hit-unary", remote: true, batch: 1, keys: 2000, prewarm: true, keyTtl: 1 << 20, capacity: 65536,
	},
	{
		name: "miss-durable", remote: true, batch: 1, keys: 8000, fresh: true, durable: true, keyTtl: 1 << 20, capacity: 4096,
	},
	{
		name: "batch-hit", batch: batchSize, keys: 2000, prewarm: true, keyTtl: 1 << 20, capacity: 65536,
	},
	{
		name: "zipf-adaptive", batch: 1, keys: 40000, adaptive: true, keyTtl: 20, capacity: 8192,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the knobs that scale a run down for the smoke test; the zero
// keyScale means full size.
type sizes struct {
	warmup   time.Duration
	measure  time.Duration
	keyScale float64
	scratch  string // directory for durable members' data, removed at Close
}

// keyCount is the size of w's key set for a run of the given sizes. A
// fresh-key workload needs a key for every query it could possibly issue:
// its rate cap times the whole time under load, whatever the scale.
func (w workload) keyCount(sz sizes) int {
	if w.fresh {
		return int(float64(w.keys) * (sz.warmup + sz.measure).Seconds())
	}
	n := w.keys
	if sz.keyScale > 0 {
		n = int(float64(n) * sz.keyScale)
	}
	return max(n, 64)
}

// clusterConfig is every member's configuration for w. It reads the
// workload's shape only: neither its name nor the seed reaches the program.
func clusterConfig(w workload) node.Config {
	cfg := node.DefaultConfig()
	cfg.Repl = repl
	cfg.RoundDuration = roundDuration
	cfg.GossipInterval = gossipEvery
	cfg.KeyTtl = w.keyTtl
	cfg.Capacity = w.capacity
	cfg.Adaptive = w.adaptive
	if w.adaptive {
		// A non-zero maintenance environment is what gives indexing a
		// cost: with env = 0 the tuner's fit degenerates to "index
		// everything forever" and adapt does no work.
		cfg.MaintainEnv = 0.5
	}
	return cfg
}

// keyPool is the seeded key set: keys[i] is the key of popularity rank i+1.
func keyPool(seed uint64, n int) []uint64 {
	prefix := "bench:" + strconv.FormatUint(seed, 10) + ":"
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(keyspace.HashString(prefix + strconv.Itoa(i)))
	}
	return keys
}

// generator produces one closed-loop client's calls. Everything it emits
// is a function of (workload, seed, client index) alone.
type generator struct {
	w      workload
	keys   []uint64
	rng    *rand.Rand
	zs     *zipf.Sampler
	next   int // fresh workloads: next unused index, strided by clients
	stride int
	buf    []uint64
}

func newGenerator(w workload, keys []uint64, seed uint64, client, clients int) *generator {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	g := &generator{w: w, keys: keys, rng: rng, next: client, stride: clients, buf: make([]uint64, w.batch)}
	if !w.fresh {
		g.zs = zipf.NewSampler(zipf.MustNew(zipfAlpha, len(keys)), rng)
	}
	return g
}

// call returns the member to issue the next call at (ignored by the remote
// engine) and its keys; ok is false once a fresh-key set is used up. The
// returned slice is reused by the next call.
func (g *generator) call() (member int, keys []uint64, ok bool) {
	member = g.rng.IntN(members)
	for i := range g.buf {
		if g.w.fresh {
			if g.next >= len(g.keys) {
				return 0, nil, false
			}
			g.buf[i] = g.keys[g.next]
			g.next += g.stride
			continue
		}
		g.buf[i] = g.keys[g.zs.Sample()]
	}
	return member, g.buf, true
}

// env is one booted, published, pre-warmed cluster with its load
// generators — what set-up produces and a run measures.
type env struct {
	w         workload
	cluster   *node.Cluster
	client    *node.RemoteClient // nil for the member engine
	clientReg *obs.Registry      // the client handle's own transport counters
	gens      []*generator
	dataDir   string
	baseline  int // goroutines before boot
}

// setup boots the cluster for w, publishes the seeded key set, pre-warms
// the index where the workload wants hits, and dials the client-only
// handle. Its wall time is setup_s.
func setup(w workload, seed uint64, sz sizes, clients int) (*env, error) {
	e := &env{w: w, baseline: runtime.NumGoroutine()}
	var stores node.StoreFactory
	if w.durable {
		dir, err := os.MkdirTemp(sz.scratch, "data-")
		if err != nil {
			return nil, fmt.Errorf("bench: data dir: %w", err)
		}
		e.dataDir = dir
		stores = func(slot int) (store.Store, error) {
			return store.OpenFile(store.FileOptions{Dir: filepath.Join(dir, "slot-"+strconv.Itoa(slot))})
		}
	}
	c, err := node.NewClusterStores(transport.NewTCP(), members, clusterConfig(w), stores)
	if err != nil {
		e.close()
		return nil, err
	}
	e.cluster = c
	if err := c.WaitConverged(10 * time.Second); err != nil {
		e.close()
		return nil, err
	}

	// Every key is published under itself as its value, which is what
	// every answer is checked against.
	keys := keyPool(seed, w.keyCount(sz))
	c.PublishRoundRobin(keys)
	ctx := context.Background()

	if w.remote {
		e.clientReg = obs.NewRegistry()
		tr := transport.Instrument(transport.NewTCP(), transport.NewMetrics(e.clientReg))
		rc, err := node.DialRemote(ctx, tr, node.RemoteConfig{Seeds: []string{c.Addr(0)}, Repl: repl, KeyTtl: w.keyTtl})
		if err != nil {
			e.close()
			return nil, err
		}
		e.client = rc
	}
	if w.prewarm {
		for at := 0; at < len(keys); at += 64 {
			chunk := keys[at:min(at+64, len(keys))]
			var res []node.QueryResult
			if w.remote {
				res, err = e.client.QueryMany(ctx, chunk)
			} else {
				res, err = c.Node(0).QueryMany(ctx, chunk)
			}
			if err != nil {
				e.close()
				return nil, fmt.Errorf("bench: pre-warm: %w", err)
			}
			for i, r := range res {
				if !r.Answered || r.Value != chunk[i] {
					e.close()
					return nil, fmt.Errorf("bench: pre-warm: key %d unanswered or wrong", chunk[i])
				}
			}
		}
	}
	for g := 0; g < clients; g++ {
		e.gens = append(e.gens, newGenerator(w, keys, seed, g, clients))
	}
	return e, nil
}

// close tears the environment down and applies the leak guards: the
// goroutine count must return to its pre-boot baseline and a durable
// workload's data directory must be gone.
func (e *env) close() error {
	if e.client != nil {
		e.client.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	if e.dataDir != "" {
		if err := os.RemoveAll(e.dataDir); err != nil {
			return fmt.Errorf("bench: teardown: %w", err)
		}
		if _, err := os.Stat(e.dataDir); !os.IsNotExist(err) {
			return fmt.Errorf("bench: teardown: data dir %s survives", e.dataDir)
		}
	}
	// Connection readers and handler goroutines unwind asynchronously
	// after their sockets close; give them a bounded moment.
	deadline := time.Now().Add(teardownWait)
	for runtime.NumGoroutine() > e.baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: teardown: %d goroutines alive, %d before boot", runtime.NumGoroutine(), e.baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
