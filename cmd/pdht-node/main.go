// Command pdht-node runs one live peer of the query-adaptive partial DHT:
// it serves the Query/Insert/Refresh/Broadcast/Gossip RPCs over TCP,
// bootstraps SWIM gossip membership through a seed peer (and from then on
// detects crashes, evicts dead peers and hands off moved index keys on its
// own), publishes synthetic news articles as local content, and answers
// metadata queries in the paper's element=value AND element=value syntax
// with the §5.1 selection algorithm (index search → broadcast on a miss →
// insert with keyTtl → refresh on a hit). With -adaptive the node also runs
// the query-adaptive control plane: it sketches its own query stream,
// refits the paper's model every -retune-interval, attaches the tuned
// keyTtl to inserts, and refuses to index keys whose measured rate falls
// below the fitted fMin (reported under "adaptive:" in the status block).
//
// Start a 3-node cluster on one machine:
//
//	pdht-node -listen 127.0.0.1:7070 -publish 50 &
//	pdht-node -listen 127.0.0.1:7071 -seed 127.0.0.1:7070 -publish 50 &
//	pdht-node -listen 127.0.0.1:7072 -seed 127.0.0.1:7070 \
//	    -query "title=Weather Iráklion AND date=2004/03/14"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdht/internal/chaos"
	"pdht/internal/metadata"
	"pdht/internal/node"
	"pdht/internal/store"
	"pdht/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdht-node:", err)
		os.Exit(1)
	}
}

// run is main with its environment abstracted, so the integration test can
// drive the binary's real code path.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdht-node", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "address to serve on")
		seed        = fs.String("seed", "", "existing cluster member to join")
		repl        = fs.Int("replicas", 3, "replica-set size: copies kept of every index entry (the paper's repl)")
		keyTtl      = fs.Int("ttl", 120, "expiration time attached to inserted keys, in rounds")
		capacity    = fs.Int("capacity", 1024, "index cache size (the paper's stor)")
		round       = fs.Duration("round", time.Second, "wall-time length of one round")
		publish     = fs.Int("publish", 0, "publish the metadata keys of N synthetic articles")
		publishSeed = fs.Uint64("publish-seed", 1, "corpus generator seed")
		query       = fs.String("query", "", "answer one ParseQuery-syntax query, print the report, exit")
		report      = fs.Duration("report", 30*time.Second, "status report interval while serving")
		gossipEvery = fs.Duration("gossip-interval", 0, "SWIM membership protocol period (0: one round)")
		suspicion   = fs.Duration("suspicion", 0, "how long an unresponsive peer stays suspect before eviction (0: 4× gossip interval)")
		syncEvery   = fs.Duration("sync-interval", 0, "anti-entropy full-state exchange period (0: 4× gossip interval)")
		members     = fs.Bool("members", false, "print the live membership table with each report")
		adaptive    = fs.Bool("adaptive", false, "run the query-adaptive control plane: sketch the query stream, retune keyTtl online, gate below-fMin inserts")
		retuneEvery = fs.Duration("retune-interval", 0, "adaptive refit period and observation window (0: 60 rounds)")
		env         = fs.Float64("env", 0, "per-routing-entry per-round probe probability (the paper's env; feeds the adaptive fMin)")
		httpAddr    = fs.String("http", "", "serve the debug HTTP plane on this address (/metrics, /report, /traces, /healthz, /debug/pprof); empty disables it")
		slowQuery   = fs.Duration("slow-query", 0, "retain traces of queries at or above this duration, served under /traces (0 disables the slow-query log)")
		dataDir     = fs.String("data-dir", "", "persist index and content mutations to a WAL+snapshot under this directory; a restart on the same directory rejoins warm at remaining TTL (empty: in-memory only)")
		fsyncMode   = fs.String("fsync", "interval", "WAL durability policy with -data-dir: always (fsync per append), interval (background flush), none (page cache only)")
		snapEvery   = fs.Duration("snapshot-interval", time.Minute, "WAL compaction period with -data-dir: how often outstanding records are absorbed into a snapshot")
		chaosSeed   = fs.Uint64("chaos-seed", 1, "seed of the fault-injection random streams (shared across the cluster so partitions line up)")
		chaosDrop   = fs.Float64("chaos-drop", 0, "fault injection: per-message per-direction drop probability on every outbound link")
		chaosLat    = fs.Duration("chaos-latency", 0, "fault injection: fixed one-way latency added to every outbound message")
		chaosJitter = fs.Duration("chaos-jitter", 0, "fault injection: uniform extra latency in [0, jitter) per outbound message")
		chaosSched  = fs.String("chaos-schedule", "", "fault schedule in the chaos mini-language (e.g. \"healthy=30s,drop20+split3=60s,heal=10m\"); splits assign groups by hashing advertised addresses, so identically-scheduled containers partition consistently with no coordination")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *report <= 0 {
		return fmt.Errorf("-report interval %v must be positive", *report)
	}

	cfg := node.DefaultConfig()
	cfg.Addr = *listen
	if *seed != "" {
		cfg.Seeds = []string{*seed}
	}
	cfg.Repl = *repl
	cfg.KeyTtl = *keyTtl
	cfg.Capacity = *capacity
	cfg.RoundDuration = *round
	cfg.GossipInterval = *gossipEvery
	cfg.SuspicionTimeout = *suspicion
	cfg.SyncInterval = *syncEvery
	cfg.Adaptive = *adaptive
	cfg.RetuneInterval = *retuneEvery
	cfg.MaintainEnv = *env
	cfg.SlowQueryThreshold = *slowQuery

	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		st, err := store.OpenFile(store.FileOptions{Dir: *dataDir, Fsync: policy, SnapshotEvery: *snapEvery})
		if err != nil {
			return err
		}
		cfg.Store = st
		if rs := st.Stats(); rs.Recovered+rs.Content > 0 || rs.Expired > 0 || rs.DroppedRecords > 0 {
			fmt.Fprintf(out, "recovered %d index entries at remaining TTL and %d content entries from %s in %v (%d expired while down, %d records dropped)\n",
				rs.Recovered, rs.Content, *dataDir, rs.Replay.Round(time.Millisecond), rs.Expired, rs.DroppedRecords)
		}
	}

	// Fault injection: with any -chaos-* knob set, the TCP transport is
	// wrapped in the same chaos layer the in-process fleet harness uses, so
	// a container cluster misbehaves exactly like the tested scenarios.
	var tr transport.Transport = transport.NewTCP()
	if *chaosDrop > 0 || *chaosLat > 0 || *chaosJitter > 0 || *chaosSched != "" {
		if _, port, err := net.SplitHostPort(*listen); err != nil || port == "" || port == "0" {
			return fmt.Errorf("-chaos-* needs an explicit -listen host:port (got %q): the advertised address is the node's chaos-group identity", *listen)
		}
		cnet := chaos.New(tr, chaos.Config{
			Seed:          *chaosSeed,
			Drop:          *chaosDrop,
			LatencyBase:   *chaosLat,
			LatencyJitter: *chaosJitter,
		})
		tr = cnet.Node(cfg.Addr)
		if *chaosSched != "" {
			scenario, err := chaos.ParseSchedule(*chaosSched)
			if err != nil {
				return err
			}
			go scenario.Run(cnet, nil, func(p chaos.Phase) {
				fmt.Fprintf(out, "chaos phase %s for %s\n", p.Name, p.Duration)
			})
		}
	}

	nd, err := node.New(tr, cfg)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
		}
		return err
	}
	defer nd.Close()
	fmt.Fprintf(out, "serving on %s (%d members known)\n", nd.Addr(), len(nd.Members()))

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("debug http: %w", err)
		}
		srv := &http.Server{Handler: nd.DebugHandler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "debug http on http://%s/ (metrics, report, traces, healthz, debug/pprof)\n", ln.Addr())
	}

	if *publish > 0 {
		n, err := publishArticles(nd, *publish, *publishSeed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "published %d index keys from %d articles\n", n, *publish)
	}

	if *query != "" {
		if err := answer(nd, *query, out); err != nil {
			return err
		}
		fmt.Fprint(out, nd.Report())
		return nil
	}

	// Serve until interrupted, reporting periodically.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*report)
	defer tick.Stop()
	status := func() {
		fmt.Fprint(out, nd.Report())
		if *members {
			printMembers(out, nd)
		}
	}
	for {
		select {
		case <-sig:
			status()
			return nil
		case <-tick.C:
			status()
		}
	}
}

// printMembers renders the live membership/status table: every peer the
// gossip layer has ever heard of, its health, and the incarnation that
// orders conflicting claims about it.
func printMembers(out io.Writer, nd *node.Node) {
	fmt.Fprintf(out, "membership of %s (view v%d):\n", nd.Addr(), nd.ViewVersion())
	for _, m := range nd.Membership() {
		fmt.Fprintf(out, "  %-28s %-8s incarnation %d\n", m.Addr, m.Status, m.Incarnation)
	}
}

// publishArticles installs every index key of n generated articles in the
// node's content store (value = article ID) and returns the key count.
func publishArticles(nd *node.Node, n int, seed uint64) (int, error) {
	arts := metadata.GenerateArticles(n, seed)
	pairs := make([]node.KV, 0, n*20)
	for i := range arts {
		for _, ik := range arts[i].Keys(0) {
			pairs = append(pairs, node.KV{Key: uint64(ik.Key), Value: uint64(arts[i].ID)})
		}
	}
	return len(pairs), nd.PublishMany(context.Background(), pairs)
}

// answer resolves one ParseQuery-syntax query and prints the outcome.
func answer(nd *node.Node, text string, out io.Writer) error {
	q, err := metadata.ParseQuery(text)
	if err != nil {
		return err
	}
	res, err := nd.Query(context.Background(), uint64(q.Key()))
	if err != nil {
		return err
	}
	switch {
	case res.FromIndex:
		fmt.Fprintf(out, "%q → article %d, answered from the index by %s (%d msgs)\n",
			text, res.Value, res.AnsweredBy, res.Total())
	case res.Answered:
		fmt.Fprintf(out, "%q → article %d, index miss, answered by broadcast from %s and inserted with keyTtl (%d msgs)\n",
			text, res.Value, res.AnsweredBy, res.Total())
	default:
		fmt.Fprintf(out, "%q → unanswered (%d msgs)\n", text, res.Total())
	}
	return nil
}
