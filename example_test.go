package pdht_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"pdht"
)

// ExampleOpen boots a two-node cluster over TCP loopback, connects a
// non-serving client through it, and resolves a batch of keys with one
// wire round trip per destination peer. It is the embed story end to end:
// no flags, no daemons — Open, Publish, QueryMany, Close.
func ExampleOpen() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A member node seeding a fresh cluster, and a second member joining
	// through it. In production these run in different processes.
	seed, err := pdht.Open(ctx, pdht.WithListen("127.0.0.1:0"))
	if err != nil {
		log.Fatal(err)
	}
	defer seed.Close()
	peer, err := pdht.Open(ctx, pdht.WithSeeds(seed.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer peer.Close()

	// The peer hosts some content — the keys broadcasts can resolve.
	if err := peer.PublishMany(ctx, []pdht.ClientKV{
		{Key: pdht.QueryKey(pdht.Predicate{Element: "title", Value: "Weather Iráklion"}), Value: 2001},
		{Key: pdht.QueryKey(pdht.Predicate{Element: "date", Value: "2004/03/14"}), Value: 2002},
	}); err != nil {
		log.Fatal(err)
	}

	// A lightweight client: speaks the wire protocol, serves nothing,
	// appears in no membership view.
	cl, err := pdht.Open(ctx, pdht.WithClientOnly(), pdht.WithSeeds(seed.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Batched resolution: keys grouped by responsible peer, one OpBatch
	// request per destination, per-key results.
	keys := []uint64{
		pdht.QueryKey(pdht.Predicate{Element: "title", Value: "Weather Iráklion"}),
		pdht.QueryKey(pdht.Predicate{Element: "date", Value: "2004/03/14"}),
	}
	results, err := cl.QueryMany(ctx, keys)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Printf("answered=%v value=%d\n", res.Answered, res.Value)
	}

	// Output:
	// answered=true value=2001
	// answered=true value=2002
}

// ExampleWithTraceHook attaches a trace hook to a member node and shows the
// per-leg record of each query: the cold query walks the whole selection
// algorithm — index probe, broadcast, insert — and the warm repeat is a
// probe hit followed by the reset-on-hit refresh. On a one-node cluster
// every leg is served in-process, so the timeline is deterministic.
func ExampleWithTraceHook() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var traces []pdht.QueryTrace
	nd, err := pdht.Open(ctx,
		pdht.WithTraceHook(func(qt pdht.QueryTrace) { traces = append(traces, qt) }))
	if err != nil {
		log.Fatal(err)
	}
	defer nd.Close()

	key := pdht.QueryKey(pdht.Predicate{Element: "title", Value: "Weather Iráklion"})
	if err := nd.Publish(ctx, key, 2001); err != nil {
		log.Fatal(err)
	}
	if _, err := nd.Query(ctx, key); err != nil { // cold: miss → broadcast → insert
		log.Fatal(err)
	}
	if _, err := nd.Query(ctx, key); err != nil { // warm: index hit
		log.Fatal(err)
	}

	for i, qt := range traces {
		fmt.Printf("query %d: %s —", i+1, qt.Outcome)
		for _, leg := range qt.Legs {
			fmt.Printf(" %s:%s", leg.Name, leg.Outcome)
		}
		fmt.Println()
	}

	// Output:
	// query 1: broadcast — probe:miss broadcast:answered insert:ok
	// query 2: hit — probe:hit refresh:ok
}

// ExampleClient_QueryMany runs batched reads against a replicated cluster
// and shows what replication buys: with replica sets of 2, killing the
// node that answered a key leaves the key readable — the next batch fails
// over to the surviving replica instead of losing the entry.
func ExampleClient_QueryMany() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A 3-member cluster with 2-way replication of every index entry.
	// All members host the content, so broadcasts can resolve misses.
	opts := []pdht.ClientOption{pdht.WithReplication(2), pdht.WithRoundDuration(100 * time.Millisecond)}
	seed, err := pdht.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer seed.Close()
	byAddr := map[string]*pdht.Client{seed.Addr(): seed}
	for i := 0; i < 2; i++ {
		m, err := pdht.Open(ctx, append(opts, pdht.WithSeeds(seed.Addr()))...)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		byAddr[m.Addr()] = m
	}
	// Wait for gossip to converge: replica placement is computed from the
	// membership view, so writes should start once every member sees all 3.
	for converged := false; !converged; time.Sleep(10 * time.Millisecond) {
		converged = true
		for _, m := range byAddr {
			if len(m.Members()) != 3 {
				converged = false
			}
		}
	}
	keys := []uint64{
		pdht.QueryKey(pdht.Predicate{Element: "author", Value: "K. Aberer"}),
		pdht.QueryKey(pdht.Predicate{Element: "size", Value: "42k"}),
	}
	for _, m := range byAddr {
		if err := m.PublishMany(ctx, []pdht.ClientKV{{Key: keys[0], Value: 1}, {Key: keys[1], Value: 2}}); err != nil {
			log.Fatal(err)
		}
	}

	cl, err := pdht.Open(ctx, append(opts, pdht.WithClientOnly(), pdht.WithSeeds(seed.Addr()))...)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// First batch: misses resolve by broadcast and the entries are
	// inserted at each key's 2-member replica set. Second batch: index
	// hits, one OpBatch round trip per destination peer.
	if _, err := cl.QueryMany(ctx, keys); err != nil {
		log.Fatal(err)
	}
	warm, err := cl.QueryMany(ctx, keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm: answered=%v,%v from index=%v,%v\n",
		warm[0].Answered, warm[1].Answered, warm[0].FromIndex, warm[1].FromIndex)

	// Kill the member that answered the first key. Its replica has the
	// only surviving copy — the next batch reads it with no broadcast.
	if m := byAddr[warm[0].AnsweredBy]; m != nil {
		m.Close()
	}
	after, err := cl.QueryMany(ctx, keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after kill: answered=%v,%v values=%d,%d\n",
		after[0].Answered, after[1].Answered, after[0].Value, after[1].Value)

	// Output:
	// warm: answered=true,true from index=true,true
	// after kill: answered=true,true values=1,2
}

// ExampleClient_QueryTopK runs a distributed top-k query twice over a
// 3-member cluster with 2-way replication. Article 301 matches all three
// terms and is hosted at two members, 302 matches two terms at two
// members, and 303 one term at one member; the ranking orders them by
// score, the sum of matched term weights. The cold query plans from no
// history; the warm repeat probes first the peers that proved to hold the
// best documents, and the threshold bound ends it before every peer is
// drained: Early is true.
func ExampleClient_QueryTopK() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	opts := []pdht.ClientOption{pdht.WithReplication(2), pdht.WithRoundDuration(100 * time.Millisecond)}
	seed, err := pdht.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer seed.Close()
	members := []*pdht.Client{seed}
	for i := 0; i < 2; i++ {
		m, err := pdht.Open(ctx, append(opts, pdht.WithSeeds(seed.Addr()))...)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		members = append(members, m)
	}
	for converged := false; !converged; time.Sleep(10 * time.Millisecond) {
		converged = true
		for _, m := range members {
			if len(m.Members()) != len(members) {
				converged = false
			}
		}
	}

	// One term key per predicate; a document "matches" a term when its
	// hosting peer published it under that key.
	terms := []uint64{
		pdht.QueryKey(pdht.Predicate{Element: "title", Value: "weather"}),
		pdht.QueryKey(pdht.Predicate{Element: "title", Value: "crete"}),
		pdht.QueryKey(pdht.Predicate{Element: "date", Value: "2004/03/14"}),
	}
	for _, p := range []struct {
		member int
		doc    uint64
		terms  []uint64
	}{
		{0, 301, terms}, {1, 301, terms},
		{1, 302, terms[:2]}, {2, 302, terms[:2]},
		{2, 303, terms[:1]},
	} {
		kvs := make([]pdht.ClientKV, len(p.terms))
		for i, term := range p.terms {
			kvs[i] = pdht.ClientKV{Key: term, Value: p.doc}
		}
		if err := members[p.member].PublishMany(ctx, kvs); err != nil {
			log.Fatal(err)
		}
	}

	for _, run := range []string{"cold", "warm"} {
		res, err := seed.QueryTopK(ctx, terms, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:", run)
		for i, e := range res.Entries {
			fmt.Printf(" #%d article %d (score %.1f)", i+1, e.Doc, e.Score)
		}
		fmt.Println()
		if run == "warm" {
			fmt.Printf("warm early=%v\n", res.Early)
		}
	}

	// Output:
	// cold: #1 article 301 (score 3.0) #2 article 302 (score 2.0)
	// warm: #1 article 301 (score 3.0) #2 article 302 (score 2.0)
	// warm early=true
}

// ExampleClient_ParseAndQuery is the paper's motivating application (§1,
// §4) — a decentralized news system whose articles are described by
// metadata files — served by a live cluster. Members host a generated
// corpus under its element=value metadata keys, and a non-serving reader
// asks for an article in the paper's own query syntax: the first ask
// misses the index and is resolved by broadcast, which inserts the key
// with keyTtl, so the repeat is an index hit.
func ExampleClient_ParseAndQuery() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A 3-member cluster over TCP loopback.
	opts := []pdht.ClientOption{pdht.WithTCP(), pdht.WithRoundDuration(100 * time.Millisecond)}
	seed, err := pdht.Open(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer seed.Close()
	members := []*pdht.Client{seed}
	for i := 0; i < 2; i++ {
		m, err := pdht.Open(ctx, append(opts, pdht.WithSeeds(seed.Addr()))...)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		members = append(members, m)
	}
	for converged := false; !converged; time.Sleep(10 * time.Millisecond) {
		converged = true
		for _, m := range members {
			if len(m.Members()) != len(members) {
				converged = false
			}
		}
	}

	// The corpus: every article's metadata keys (single predicates and
	// their conjunctions), published round-robin, value = article ID.
	articles := pdht.GenerateArticles(60, 7)
	batches := make([][]pdht.ClientKV, len(members))
	for i := range articles {
		for _, ik := range articles[i].Keys(20) {
			m := i % len(members)
			batches[m] = append(batches[m], pdht.ClientKV{Key: uint64(ik.Key), Value: uint64(articles[i].ID)})
		}
	}
	for i, m := range members {
		if err := m.PublishMany(ctx, batches[i]); err != nil {
			log.Fatal(err)
		}
	}

	// A reader speaks the wire protocol but joins nothing.
	reader, err := pdht.Open(ctx, pdht.WithTCP(), pdht.WithClientOnly(), pdht.WithSeeds(seed.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()

	query := fmt.Sprintf("title=%s AND date=%s", articles[0].Title, articles[0].Date)
	fmt.Println(query)
	for _, ask := range []string{"first", "repeat"} {
		res, err := reader.ParseAndQuery(ctx, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: article %d, from index %v\n", ask, res.Value, res.FromIndex)
	}

	// Output:
	// title=election at chania AND date=2004/03/28
	// first: article 0, from index false
	// repeat: article 0, from index true
}
