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

var updateGolden = flag.Bool("update", false, "rewrite the golden files the selected tests compare against")

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
	got := experimentsJSON(t, defaultScale, strings.Fields(string(m[1])))
	matchGolden(t, filepath.Join(root, "BENCH_node.json"), got, "run with -update, or make bench")
}

// matchGolden requires got to equal the file at path byte for byte, or
// rewrites the file under -update.
func matchGolden(t *testing.T, path string, got []byte, howToUpdate string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (%s): %v", howToUpdate, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale (%s)", path, howToUpdate)
	}
}

// experimentsJSON runs the named experiments at the given population and
// the default seed, as the binary does, and returns their JSON tables
// concatenated.
func experimentsJSON(t *testing.T, scale int, names []string) []byte {
	t.Helper()
	list := experimentList(func() sim.Config { return simConfigFor(scale, defaultSeed) })
	var got bytes.Buffer
	for _, name := range names {
		i := slices.IndexFunc(list, func(e experiment) bool { return e.name == name })
		if i < 0 {
			t.Fatalf("pdht-bench does not know experiment %q", name)
		}
		tbl, err := list[i].run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tbl.RenderJSON(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return got.Bytes()
}

// TestValidate20000IsCurrent pins V1 at the paper's own population, 20,000
// peers (Table 1), in testdata/validate-20000.json, so that a change to
// the simulator's numbers at that size shows up as a diff. It takes about
// a minute and a gigabyte, so it is gated behind PDHT_SCALE=1:
// `PDHT_SCALE=1 go test ./cmd/pdht-bench -run TestValidate20000IsCurrent`
// (add -update after an intended change).
func TestValidate20000IsCurrent(t *testing.T) {
	if os.Getenv("PDHT_SCALE") == "" {
		t.Skip("set PDHT_SCALE=1 to run V1 at 20,000 peers")
	}
	got := experimentsJSON(t, 20000, []string{"validate"})
	matchGolden(t, filepath.Join("testdata", "validate-20000.json"), got, "run with -update")
}
