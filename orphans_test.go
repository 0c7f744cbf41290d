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
// client/ that no non-test Go file names and that stays anyway, with the
// reason. Anything else the scan finds is dead weight: delete it with the
// test of that function alone.
var orphanAllowed = map[string]string{
	// Reached through an interface the standard library calls. (String and
	// Error need no entry: some non-test file calls one by name.)
	"MarshalText":   "encoding.TextMarshaler: stats.MsgClass keys /report's JSON maps",
	"UnmarshalText": "encoding.TextUnmarshaler: the other half of the same",

	// Public surface of the client handle.
	"Serving": "client.Client: tells a member handle from a client-only one",

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
func TestNoOrphanedExports(t *testing.T) {
	type decl struct{ name, where string }
	var decls []decl
	uses := map[string]int{} // identifier → occurrences that are not a func's own name
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
		scanned := strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "client/")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				own[fn.Name] = true
				if scanned && fn.Name.IsExported() {
					decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Name.Pos()).String()})
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
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		delete(stale, d.name)
		if orphanAllowed[d.name] == "" {
			orphans = append(orphans, d.where+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named by no non-test file: delete it, or say in orphanAllowed why it stays", o)
	}
	for name := range stale {
		t.Errorf("orphanAllowed lists %s, which is no longer an orphan: drop the entry", name)
	}
}
