// Telemetry: the observability plane of a live cluster — per-query traces
// through WithTraceHook, the slow-query ring, and the debug HTTP endpoint
// every member node can serve (/metrics Prometheus text, /report JSON,
// /traces, /healthz, /debug/pprof).
//
//	go run ./examples/telemetry
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"pdht"
)

// waitMembers blocks until every handle sees n members — the gossip
// layer's convergence barrier, polled through the public API.
func waitMembers(handles []*pdht.Client, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, h := range handles {
			if len(h.Members()) != n {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("cluster did not converge")
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// 1. A 3-member cluster on TCP loopback, with a trace hook and the
	// slow-query log on the seed. In production each member runs in its own
	// process (cmd/pdht-node -http :6060 serves the same debug plane).
	var traces []pdht.QueryTrace
	opts := []pdht.ClientOption{pdht.WithRoundDuration(100 * time.Millisecond)}
	seed, err := pdht.Open(ctx, append(opts,
		pdht.WithTraceHook(func(qt pdht.QueryTrace) { traces = append(traces, qt) }),
		pdht.WithSlowQueryLog(1*time.Nanosecond), // everything is "slow": a demo, not advice
	)...)
	if err != nil {
		log.Fatal(err)
	}
	defer seed.Close()
	handles := []*pdht.Client{seed}
	for i := 0; i < 2; i++ {
		m, err := pdht.Open(ctx, append(opts, pdht.WithSeeds(seed.Addr()))...)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		handles = append(handles, m)
	}
	waitMembers(handles, 3)

	// 2. Publish and query: the cold query walks probe → broadcast →
	// insert; repeats hit the index. Every query lands in the hook.
	key := pdht.QueryKey(pdht.Predicate{Element: "title", Value: "Weather Iráklion"})
	if err := handles[1].Publish(ctx, key, 2001); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := seed.Query(ctx, key); err != nil {
			log.Fatal(err)
		}
	}

	// 3. The per-leg timelines the hook collected.
	fmt.Printf("=== %d traced queries ===\n", len(traces))
	for _, qt := range traces {
		fmt.Print(qt.Timeline())
	}

	// 4. The same queries, as the slow-query ring retains them (newest
	// first) — what /traces serves.
	fmt.Printf("=== slow-query ring: %d retained ===\n", len(seed.SlowQueries()))

	// 5. The debug HTTP plane, scraped like Prometheus would. The handler
	// mounts on any mux; cmd/pdht-node serves it with -http.
	handler, _ := seed.DebugHandler()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if path == "/metrics" {
			fmt.Println("=== /metrics (node-layer excerpt) ===")
			for _, line := range strings.Split(string(body), "\n") {
				if strings.HasPrefix(line, "pdht_node_queries_total") ||
					strings.HasPrefix(line, "pdht_node_hits_total") ||
					strings.HasPrefix(line, "pdht_node_broadcasts_total") {
					fmt.Println(line)
				}
			}
		} else {
			fmt.Printf("=== %s ===\n%s", path, body)
		}
	}
}
