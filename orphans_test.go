package pdht_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowed is every exported function or method under internal/ and
// client/, and every exported function or variable of the root package,
// that nothing names and that stays anyway, with the reason. Anything else
// the scan finds is dead weight: delete it with the test of that function
// alone.
var orphanAllowed = map[string]string{
	// Reached through an interface the standard library calls. (String and
	// Error need no entry: some non-test file calls one by name.)
	"MarshalText":   "encoding.TextMarshaler: stats.MsgClass keys /report's JSON maps",
	"UnmarshalText": "encoding.TextUnmarshaler: the other half of the same",

	// Public surface of the client handle.
	"Serving":            "client.Client: tells a member handle from a client-only one",
	"WithCapacity":       "client option an embedder passes to pdht.Open; TestOptionsReachConfig",
	"WithCallTimeout":    "client option an embedder passes to pdht.Open; TestOptionsReachConfig",
	"WithGossipInterval": "client option an embedder passes to pdht.Open; TestOptionsReachConfig",
	"WithMaintainEnv":    "client option an embedder passes to pdht.Open; TestOptionsReachConfig",
	"WithAdaptive":       "client option an embedder passes to pdht.Open; TestOptionsReachConfig",

	// The root package's typed failures: a caller matches them with
	// errors.Is, so they are API even where no example reaches one.
	"ErrClosed":    "pdht: Client used after Close",
	"ErrNoMembers": "pdht: no seed or member answered",
	"ErrStaleView": "pdht: a peer refused the request's membership view",
	"ErrTimeout":   "pdht: a request outlived its deadline",
	"ErrBadQuery":  "pdht: malformed query text",

	// Hooks a test uses to force what otherwise happens on a timer or over
	// many rounds.
	"Compact":           "store.FileStore: snapshot now, not at SnapshotEvery",
	"Kill":              "node.Cluster: the crash half of every churn and restart test",
	"Restart":           "node.Cluster: the other half",
	"PublishReplicated": "node.Cluster: content at a known number of members",

	// Accessors a remaining test uses to observe behaviour that stays.
	"Depth":            "dht.Trie: trie_test checks the built depth and bounds lookup hops by it",
	"RoutingEntries":   "dht.Trie: trie_test holds maintenance volume to eq. 8 through it",
	"DHT":              "simcore.PartialIndex: failure tests take peers of a key's group offline",
	"ExactIndexedKeys": "simcore.PartialIndex: index_test's reference for IndexedKeys",
	"Degree":           "overlay.Graph: overlay_test checks the degree distribution",
	"MeanDegree":       "overlay.Graph: flood duplication is checked against it",
	"Neighbors":        "overlay.Graph: overlay_test checks the links are symmetric",
	"HasAt":            "overlay.Store: overlay_test checks where replicas landed",
	"Flips":            "churn.Process: churn_test counts session changes",
	"OnlineCount":      "netsim.Network: churn and network tests read the live population",
	"Variance":         "stats.Welford: holds the streaming update and Merge to the two-pass result",
	"FormatSnapshot":   "stats: how node's accounting test prints a counter delta it rejects",
	"RenderString":     "stats.Table: how experiments tests read a table",
}

// TestNoOrphanedExports is `make orphans`: it lists the exported functions
// and methods declared under internal/ and client/ whose name appears as an
// identifier in no non-test Go file of the repository (bench/ included —
// it is a real consumer) other than at their own declaration. The match is
// by name, not by type, so it errs towards silence: a method is cleared by
// any use of the same name, and by an interface that declares it.
//
// The root package is held to its callers instead: each of its exported
// functions and variables must be named as pdht.<Name> by a non-test file
// or by one of the root package's Example functions — the godoc a reader
// runs. Its own wrapper bodies do not count, since each calls the
// same-named function it re-exports.
func TestNoOrphanedExports(t *testing.T) {
	type decl struct{ name, where string }
	var decls, rootDecls []decl
	uses := map[string]int{}     // identifier → occurrences that are not a func's own name
	rootUses := map[string]int{} // Name → occurrences of pdht.Name
	countRootUses := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "pdht" {
					rootUses[sel.Sel.Name]++
				}
			}
			return true
		})
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		root := filepath.Dir(path) == "."
		test := strings.HasSuffix(path, "_test.go")
		if d.IsDir() || !strings.HasSuffix(path, ".go") || test && !root {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if test {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
					countRootUses(fn)
				}
			}
			return nil
		}
		countRootUses(f)
		slash := filepath.ToSlash(path)
		scanned := strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "client/")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own[d.Name] = true
				if scanned && d.Name.IsExported() {
					decls = append(decls, decl{d.Name.Name, fset.Position(d.Name.Pos()).String()})
				}
				if root && d.Recv == nil && d.Name.IsExported() {
					rootDecls = append(rootDecls, decl{d.Name.Name, fset.Position(d.Name.Pos()).String()})
				}
			case *ast.GenDecl:
				if !root || d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							rootDecls = append(rootDecls, decl{id.Name, fset.Position(id.Pos()).String()})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stale := map[string]bool{}
	for name := range orphanAllowed {
		stale[name] = true
	}
	var orphans []string
	check := func(decls []decl, uses map[string]int) {
		for _, d := range decls {
			if uses[d.name] > 0 {
				continue
			}
			delete(stale, d.name)
			if orphanAllowed[d.name] == "" {
				orphans = append(orphans, d.where+": "+d.name)
			}
		}
	}
	check(decls, uses)
	check(rootDecls, rootUses)
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named by no non-test file or root example: delete it, or say in orphanAllowed why it stays", o)
	}
	for name := range stale {
		t.Errorf("orphanAllowed lists %s, which is no longer an orphan: drop the entry", name)
	}
}

// knobAllowed is every exported field of a *Config or *Options struct
// under internal/ and client/ that no non-test file outside its own sets,
// and that stays anyway, with the reason: a test turns it to force what
// the default never does.
var knobAllowed = map[string]string{
	"adapt.Config.TTLMax":             "forces the shrink in TestRetuneShrinkKeepsGrantedTTLs",
	"chaos.Config.Duplicate":          "TestDuplicateDelivery",
	"overlay.SearchConfig.MaxSteps":   "the flood-fallback test",
	"store.FileOptions.SnapshotBytes": "keeps compaction out of the store benchmarks",
}

// TestNoOrphanedKnobs is the other half of `make orphans`: every exported
// field of an exported *Config or *Options struct declared under internal/
// or client/ must be set by some non-test Go file other than the declaring
// one (bench/ included) — as a composite-literal key or as an assignment
// target. A field nothing sets has one value in use, and is a constant.
// The match is by field name, not by type, so it errs towards silence,
// like TestNoOrphanedExports.
func TestNoOrphanedKnobs(t *testing.T) {
	type field struct{ name, file, where string }
	var fields []field
	setters := map[string]map[string]bool{} // field name → files that set it
	set := func(name, file string) {
		if setters[name] == nil {
			setters[name] = map[string]bool{}
		}
		setters[name][file] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		if strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "client/") {
			for _, d := range f.Decls {
				g, ok := d.(*ast.GenDecl)
				if !ok || g.Tok != token.TYPE {
					continue
				}
				for _, spec := range g.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() ||
						!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{f.Name.Name + "." + ts.Name.Name + "." + id.Name,
									path, fset.Position(id.Pos()).String()})
							}
						}
					}
				}
			}
		}
		target := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				set(sel.Sel.Name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id.Name, path)
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					target(e)
				}
			case *ast.IncDecStmt:
				target(n.X)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stale := map[string]bool{}
	for name := range knobAllowed {
		stale[name] = true
	}
	for _, fl := range fields {
		name := fl.name[strings.LastIndex(fl.name, ".")+1:]
		others := len(setters[name])
		if setters[name][fl.file] {
			others--
		}
		if others > 0 {
			continue
		}
		delete(stale, fl.name)
		if knobAllowed[fl.name] == "" {
			t.Errorf("%s: %s is set by no non-test file but its own: make it a constant, or say in knobAllowed why it stays", fl.where, fl.name)
		}
	}
	for name := range stale {
		t.Errorf("knobAllowed lists %s, which some non-test file sets: drop the entry", name)
	}
}
