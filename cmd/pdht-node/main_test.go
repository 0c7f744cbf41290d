package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pdht/internal/metadata"
	"pdht/internal/node"
	"pdht/internal/transport"
)

// mustPublish installs key→value in n's content store, failing the test on
// a typed error.
func mustPublish(t *testing.T, n *node.Node, key, value uint64) {
	t.Helper()
	if err := n.Publish(context.Background(), key, value); err != nil {
		t.Fatalf("Publish(%d): %v", key, err)
	}
}

// TestQueryFlagAgainstRunningSeed exercises the single-shot CLI path: a
// seed node with published content is already up; `pdht-node -seed …
// -query …` joins over TCP, resolves the query by broadcast, and prints
// its report.
func TestQueryFlagAgainstRunningSeed(t *testing.T) {
	cfg := node.DefaultConfig()
	cfg.RoundDuration = 100 * time.Millisecond
	seed, err := node.New(transport.NewTCP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	arts := metadata.GenerateArticles(5, 1)
	for i := range arts {
		for _, ik := range arts[i].Keys(0) {
			mustPublish(t, seed, uint64(ik.Key), uint64(arts[i].ID))
		}
	}

	text := fmt.Sprintf("title=%s", arts[2].Title)
	var buf bytes.Buffer
	err = run([]string{
		"-seed", seed.Addr(),
		"-round", "100ms",
		"-gossip-interval", "20ms",
		"-suspicion", "100ms",
		"-query", text,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("article %d", arts[2].ID)) {
		t.Fatalf("query did not resolve to article %d:\n%s", arts[2].ID, out)
	}
	if !strings.Contains(out, "answered by broadcast") {
		t.Fatalf("cold query should have been answered by broadcast:\n%s", out)
	}
	if !strings.Contains(out, "queries 1") {
		t.Fatalf("report not printed:\n%s", out)
	}
	// The report's membership line is the status view: both peers of the
	// 2-node cluster must appear alive.
	if !strings.Contains(out, "membership:") || !strings.Contains(out, seed.Addr()+"=alive") {
		t.Fatalf("report lacks the membership status view:\n%s", out)
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-not-a-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestBadQuerySyntax(t *testing.T) {
	cfg := node.DefaultConfig()
	seed, err := node.New(transport.NewTCP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	var buf bytes.Buffer
	if err := run([]string{"-seed", seed.Addr(), "-query", "no predicate here"}, &buf); err == nil {
		t.Fatal("malformed query accepted")
	}
}

// TestAdaptiveFlagReportsControlPlane boots an adaptive node against a
// running seed and checks that the report carries the control-plane block —
// the CLI surface of internal/adapt.
func TestAdaptiveFlagReportsControlPlane(t *testing.T) {
	cfg := node.DefaultConfig()
	cfg.RoundDuration = 100 * time.Millisecond
	seed, err := node.New(transport.NewTCP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	arts := metadata.GenerateArticles(3, 1)
	for i := range arts {
		for _, ik := range arts[i].Keys(0) {
			mustPublish(t, seed, uint64(ik.Key), uint64(arts[i].ID))
		}
	}

	var buf bytes.Buffer
	err = run([]string{
		"-seed", seed.Addr(),
		"-round", "100ms",
		"-gossip-interval", "20ms",
		"-suspicion", "100ms",
		"-adaptive",
		"-retune-interval", "1h", // no retune fires during the test
		"-env", "0.1",
		"-query", fmt.Sprintf("title=%s", arts[1].Title),
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "adaptive: keyTtl 120") {
		t.Fatalf("report lacks the adaptive control-plane block:\n%s", out)
	}
	if err := run([]string{"-retune-interval", "-5s", "-adaptive", "-query", "a=b"}, &buf); err == nil {
		t.Fatal("negative retune interval accepted")
	}
}
