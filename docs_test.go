package pdht_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs gate: the markdown front door must not rot. TestDocsLinks
// verifies every relative link in the documentation set points at a file
// that exists, and TestReadmeQuickstartIsCompiled pins the README's
// quickstart code block byte-for-byte to examples/readme/main.go — which
// the examples CI job builds, vets and runs, so "the quickstart compiles as
// written" is machine-checked, not aspirational. TestDocsCiteRealThings
// holds the three main documents to the tree: what they cite exists. The
// docs CI job runs exactly these tests.

// docsFiles is the documentation set under the link check.
var docsFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPERS.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"}

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repo.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocsLinks(t *testing.T) {
	for _, doc := range docsFiles {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("documentation file missing: %v", err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external; CI has no network guarantee
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment, same file
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, m[1])
			}
		}
	}
}

func TestReadmeQuickstartIsCompiled(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The first ```go fence in the README is the quickstart.
	_, rest, found := strings.Cut(string(readme), "```go\n")
	if !found {
		t.Fatal("README.md has no go code block")
	}
	block, _, found := strings.Cut(rest, "```")
	if !found {
		t.Fatal("README.md quickstart block is unterminated")
	}
	example, err := os.ReadFile(filepath.Join("examples", "readme", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	// The example file is the block plus a leading doc comment; the code
	// from `package main` down must match byte for byte.
	idx := strings.Index(string(example), "package main")
	if idx < 0 {
		t.Fatal("examples/readme/main.go has no package clause")
	}
	if compiled := string(example[idx:]); block != compiled {
		t.Errorf("README quickstart diverged from examples/readme/main.go;\nREADME block:\n%s\ncompiled example:\n%s",
			block, compiled)
	}
}

// TestDocsNameShippedFlags guards the operational docs against flag rot:
// every `-flag` the README's cluster section tells the user to type must
// exist in cmd/pdht-node.
func TestDocsNameShippedFlags(t *testing.T) {
	main, err := os.ReadFile(filepath.Join("cmd", "pdht-node", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"replicas", "adaptive", "gossip-interval", "suspicion", "demo", "demo-topk", "publish", "query", "members", "report", "http", "slow-query", "data-dir", "fsync", "snapshot-interval", "chaos-seed", "chaos-drop", "chaos-latency", "chaos-jitter", "chaos-schedule"} {
		if !strings.Contains(string(main), fmt.Sprintf("%q", flag)) {
			t.Errorf("README documents -%s but cmd/pdht-node does not define it", flag)
		}
	}
	chaosMain, err := os.ReadFile(filepath.Join("cmd", "pdht-chaos", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"n", "seed", "schedule", "drop", "latency", "jitter", "entries", "workers", "keys", "adaptive", "boot-timeout"} {
		if !strings.Contains(string(chaosMain), fmt.Sprintf("%q", flag)) {
			t.Errorf("README/EXPERIMENTS.md document pdht-chaos -%s but cmd/pdht-chaos does not define it", flag)
		}
	}
	simMain, err := os.ReadFile(filepath.Join("cmd", "pdht-sim", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"strategy", "topk-k", "topk-terms", "topk-groups", "topk-group-size", "topk-copies", "topk-uniform"} {
		if !strings.Contains(string(simMain), fmt.Sprintf("%q", flag)) {
			t.Errorf("EXPERIMENTS.md documents -%s but cmd/pdht-sim does not define it", flag)
		}
	}
	top, err := os.ReadFile(filepath.Join("cmd", "pdht-top", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"seed", "interval", "once", "json"} {
		if !strings.Contains(string(top), fmt.Sprintf("%q", flag)) {
			t.Errorf("README documents -%s but cmd/pdht-top does not define it", flag)
		}
	}
}

// What TestDocsCiteRealThings reads out of the prose: repo paths under the
// three source roots, `make` targets (in backticks or at the start of a
// command line), and test-function names.
var (
	docPath   = regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_./-]+`)
	docMake   = regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z-]*)")
	docTest   = regexp.MustCompile(`\b(?:Test|Example|Fuzz|Benchmark)[A-Z_][A-Za-z0-9_]*`)
	makeRule  = regexp.MustCompile(`(?m)^([a-z][a-z-]*):`)
	testFuncs = regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteRealThings guards README, DESIGN and EXPERIMENTS against
// citing what a later change deleted: every internal/…, cmd/…, examples/…
// path they mention exists, every `make <target>` is a Makefile rule, and
// every Test/Example/Fuzz/Benchmark name is — as a prefix, since the docs
// quote -run patterns — a function some _test.go file declares.
func TestDocsCiteRealThings(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		body, err := os.ReadFile(path)
		for _, m := range testFuncs.FindAllStringSubmatch(string(body), -1) {
			declared = append(declared, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		body := string(raw)
		for _, cited := range docPath.FindAllString(body, -1) {
			path := strings.TrimRight(cited, "./")
			if _, err := os.Stat(path); err == nil {
				continue
			}
			// internal/node.Node, or a file name that ends a sentence: the
			// last segment up to its first dot.
			dir, last := filepath.Split(path)
			last, _, _ = strings.Cut(last, ".")
			if _, err := os.Stat(dir + last); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, cited)
			}
		}
		for _, m := range docMake.FindAllStringSubmatch(body, -1) {
			if !targets[m[1]] {
				t.Errorf("%s cites `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, cited := range docTest.FindAllString(body, -1) {
			found := false
			for _, name := range declared {
				found = found || strings.HasPrefix(name, cited)
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, cited)
			}
		}
	}
}
