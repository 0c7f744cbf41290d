package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pdht/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite BENCH_node.json at the repo root")

// TestBenchGoldenIsCurrent pins BENCH_node.json: every experiment the
// Makefile's BENCH_EXPERIMENTS names is regenerated in-process, from the
// same list and default flags the binary runs, and the concatenated JSON
// must equal the committed file byte for byte — which also proves the
// tables are deterministic. After an intended change to a table:
// `go test ./cmd/pdht-bench -run TestBenchGoldenIsCurrent -update`
// (or `make bench`, which writes the same bytes through the CLI).
func TestBenchGoldenIsCurrent(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^BENCH_EXPERIMENTS := (.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no BENCH_EXPERIMENTS line")
	}
	list := experimentList(func() sim.Config { return simConfigFor(defaultScale, defaultSeed) })
	var got bytes.Buffer
	for _, name := range strings.Fields(string(m[1])) {
		i := slices.IndexFunc(list, func(e experiment) bool { return e.name == name })
		if i < 0 {
			t.Fatalf("BENCH_EXPERIMENTS names %q, which pdht-bench does not know", name)
		}
		tbl, err := list[i].run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tbl.RenderJSON(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	path := filepath.Join(root, "BENCH_node.json")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCH_node.json is stale (run with -update, or make bench)")
	}
}
