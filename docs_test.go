package pdht_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The docs gate: the markdown front door must not rot. TestDocsLinks
// verifies every relative link in the documentation set points at a file
// that exists, and TestReadmeQuickstartIsCompiled pins the README's
// quickstart code block byte-for-byte to examples/readme/main.go — which
// the examples CI job builds, vets and runs, so "the quickstart compiles as
// written" is machine-checked, not aspirational. TestDocsCiteRealThings
// holds the three main documents to the tree: what they cite exists;
// TestDesignNamesRealPackages does the same for DESIGN.md's layer map and
// package list, and TestExperimentIndexIsCurrent for the experiment index
// of EXPERIMENTS.md. The docs CI job runs exactly these tests.

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

// changesEntry matches the first line of a CHANGES.md entry, capturing its
// PR number.
var changesEntry = regexp.MustCompile(`(?m)^(?:- )?PR (\d+):`)

// TestChangesEntriesFitTheBudget holds every CHANGES.md entry from PR 36 on
// to 4 KB, the byte budget ROADMAP item 8 sets; long-form evidence belongs
// in EXPERIMENTS.md. Cutting the older entries down is that item's job.
func TestChangesEntriesFitTheBudget(t *testing.T) {
	body, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	locs := changesEntry.FindAllSubmatchIndex(body, -1)
	for i, loc := range locs {
		end := len(body)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		pr, err := strconv.Atoi(string(body[loc[2]:loc[3]]))
		if err != nil {
			t.Fatal(err)
		}
		if size := end - loc[0]; pr >= 36 && size > 4<<10 {
			t.Errorf("the CHANGES.md entry for PR %d is %d bytes, over the 4 KB budget", pr, size)
		}
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
	for _, flag := range []string{"replicas", "adaptive", "gossip-interval", "suspicion", "publish", "query", "members", "report", "http", "slow-query", "data-dir", "fsync", "snapshot-interval", "chaos-seed", "chaos-drop", "chaos-latency", "chaos-jitter", "chaos-schedule"} {
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

// section returns the part of a markdown body from the heading line to the
// next heading of the same level.
func section(t *testing.T, body, heading string) string {
	t.Helper()
	_, rest, found := strings.Cut(body, "\n"+heading+"\n")
	if !found {
		t.Fatalf("no %q section", heading)
	}
	level, _, _ := strings.Cut(heading, " ")
	rest, _, _ = strings.Cut(rest, "\n"+level+" ")
	return rest
}

// mapProse is every lowercase word of DESIGN.md's layer-map diagram that is
// annotation rather than the name of a package, binary or directory.
var mapProse = strings.Fields(`engine serving state view re sync six strategies round by
	peers rounds live leaves the simulator also runs sketches public façade go import only`)

// TestDesignNamesRealPackages holds DESIGN.md's two inventories to the
// tree, both ways: every lowercase name in the layer-map diagram is an
// internal package, `client`, a cmd/ binary or a known annotation word;
// every package DESIGN.md introduces in bold (**`internal/…`**, from
// "Packages" on) is a directory of Go source; every exported identifier
// the diagram shows is declared somewhere in the tree; and no package under
// internal/ is missing from either.
func TestDesignNamesRealPackages(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, diagram, _ := strings.Cut(section(t, string(raw), "## Layer map"), "```\n")
	diagram, _, found := strings.Cut(diagram, "```")
	if !found {
		t.Fatal("DESIGN.md layer map has no diagram")
	}
	// The package list: "## Packages" and the sections after it, which
	// introduce each package in bold.
	_, list, found := strings.Cut(string(raw), "\n## Packages\n")
	if !found {
		t.Fatal("DESIGN.md has no Packages section")
	}

	// The packages on disk by last path element, and every exported type,
	// function and method they declare.
	byBase := map[string]string{"client": "client", "pdht": "."}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^(?:type|func(?: \([^)]*\))?) ([A-Z]\w*)`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			byBase[filepath.Base(dir)] = dir
		} else if strings.HasPrefix(dir, "cmd/") {
			byBase[strings.TrimPrefix(filepath.Base(dir), "pdht-")] = dir
		}
		body, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(body, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	named := map[string]bool{"cmd": true, "examples": true}
	for _, w := range mapProse {
		named[w] = true
	}
	for _, w := range regexp.MustCompile(`\p{L}[\p{L}0-9]*`).FindAllString(diagram, -1) {
		switch {
		case w == strings.ToUpper(w): // LIVE TREE, SHARED LEAVES
		case w != strings.ToLower(w):
			if !declared[w] {
				t.Errorf("DESIGN.md layer map shows %s, which no package declares", w)
			}
		case byBase[w] != "":
			named[byBase[w]] = true
		case !named[w]:
			t.Errorf("DESIGN.md layer map names %q: not a package, a cmd/ binary or an annotation word (mapProse)", w)
		}
	}

	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("\\*\\*`(internal/[a-z/]+)`\\*\\*").FindAllStringSubmatch(list, -1) {
		listed[m[1]] = true
		if byBase[filepath.Base(m[1])] != m[1] {
			t.Errorf("DESIGN.md package list has %s, which holds no Go source", m[1])
		}
	}
	for _, dir := range byBase {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		if !named[dir] {
			t.Errorf("%s is missing from DESIGN.md's layer map", dir)
		}
		if !listed[dir] {
			t.Errorf("%s is missing from DESIGN.md's package list", dir)
		}
	}
}

// TestExperimentIndexIsCurrent holds the experiment index of EXPERIMENTS.md
// "Regeneration" to the binary and the Makefile: its ids are exactly those
// pdht-bench -experiment accepts, in order, and its last column says
// BENCH_node.json exactly for the ids BENCH_EXPERIMENTS pins.
func TestExperimentIndexIsCurrent(t *testing.T) {
	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	var accepted []string
	for _, m := range regexp.MustCompile(`(?m)^\t\t\{"([a-z0-9]+)", func`).FindAllStringSubmatch(read(filepath.Join("cmd", "pdht-bench", "main.go")), -1) {
		accepted = append(accepted, m[1])
	}
	if len(accepted) == 0 {
		t.Fatal("found no experiment ids in cmd/pdht-bench/main.go")
	}
	m := regexp.MustCompile(`(?m)^BENCH_EXPERIMENTS := (.*)$`).FindStringSubmatch(read("Makefile"))
	if m == nil {
		t.Fatal("Makefile has no BENCH_EXPERIMENTS line")
	}
	pinned := map[string]bool{}
	for _, id := range strings.Fields(m[1]) {
		pinned[id] = true
	}

	_, table, found := strings.Cut(section(t, read("EXPERIMENTS.md"), "## Regeneration"), "| experiment id | table | pinned |\n")
	if !found {
		t.Fatal("EXPERIMENTS.md Regeneration has no experiment index table")
	}
	var indexed []string
	for _, row := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|.*\\| ([^|]+) \\|$").FindAllStringSubmatch(table, -1) {
		id, where := row[1], row[2]
		indexed = append(indexed, id)
		if want := pinned[id]; (where == "`BENCH_node.json`") != want {
			t.Errorf("experiment index says %s is %q, but BENCH_EXPERIMENTS pins it: %v", id, where, want)
		}
	}
	if strings.Join(indexed, " ") != strings.Join(accepted, " ") {
		t.Errorf("experiment index lists %v\npdht-bench -experiment accepts %v", indexed, accepted)
	}
}
