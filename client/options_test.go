package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
	"time"

	"pdht/internal/node"
	"pdht/internal/transport"
)

// TestOptionsReachConfig applies each exported With* option alone and
// checks the value arrives where Open reads it: a field of the node.Config
// or node.RemoteConfig that build returns, or — for the three options that
// choose what Open builds rather than how — of the config itself. An option
// that silently stops being wired fails here, and so does a new one this
// table does not list.
func TestOptionsReachConfig(t *testing.T) {
	hook := func(QueryTrace) {}
	cases := []struct {
		name string
		opt  Option
		ok   func(c *config, n node.Config, r node.RemoteConfig) bool
	}{
		{"WithTCP", WithTCP(), func(c *config, _ node.Config, _ node.RemoteConfig) bool {
			_, tcp := c.tr.(*transport.TCP)
			return tcp
		}},
		{"WithListen", WithListen("10.0.0.1:7070"), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.Addr == "10.0.0.1:7070"
		}},
		{"WithSeeds", WithSeeds("a:1", "b:2"), func(c *config, n node.Config, r node.RemoteConfig) bool {
			// Both hosts get every seed (each tries them in order).
			return slices.Equal(r.Seeds, []string{"a:1", "b:2"}) && slices.Equal(n.Seeds, r.Seeds)
		}},
		{"WithClientOnly", WithClientOnly(), func(c *config, _ node.Config, _ node.RemoteConfig) bool {
			return c.clientOnly
		}},
		{"WithReplication", WithReplication(5), func(_ *config, n node.Config, r node.RemoteConfig) bool {
			return n.Repl == 5 && r.Repl == 5
		}},
		{"WithKeyTtl", WithKeyTtl(77), func(_ *config, n node.Config, r node.RemoteConfig) bool {
			return n.KeyTtl == 77 && r.KeyTtl == 77
		}},
		{"WithCapacity", WithCapacity(33), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.Capacity == 33
		}},
		{"WithRoundDuration", WithRoundDuration(250 * time.Millisecond), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.RoundDuration == 250*time.Millisecond
		}},
		{"WithCallTimeout", WithCallTimeout(7 * time.Second), func(_ *config, n node.Config, r node.RemoteConfig) bool {
			return n.CallTimeout == 7*time.Second && r.CallTimeout == 7*time.Second
		}},
		{"WithGossipInterval", WithGossipInterval(40 * time.Millisecond), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.GossipInterval == 40*time.Millisecond
		}},
		{"WithMaintainEnv", WithMaintainEnv(0.05), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.MaintainEnv == 0.05
		}},
		{"WithAdaptive", WithAdaptive(3 * time.Second), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.Adaptive && n.RetuneInterval == 3*time.Second
		}},
		{"WithTraceHook", WithTraceHook(hook), func(_ *config, n node.Config, r node.RemoteConfig) bool {
			return n.TraceHook != nil && r.TraceHook != nil
		}},
		{"WithTraceSampling", WithTraceSampling(0.25), func(_ *config, n node.Config, r node.RemoteConfig) bool {
			return n.TraceSampling == 0.25 && r.TraceSampling == 0.25
		}},
		{"WithSlowQueryLog", WithSlowQueryLog(9 * time.Millisecond), func(_ *config, n node.Config, _ node.RemoteConfig) bool {
			return n.SlowQueryThreshold == 9*time.Millisecond
		}},
		{"WithDataDir", WithDataDir("/var/lib/pdht"), func(c *config, _ node.Config, _ node.RemoteConfig) bool {
			return c.dataDir == "/var/lib/pdht"
		}},
	}

	var covered []string
	for _, tc := range cases {
		covered = append(covered, tc.name)
		for _, set := range []bool{false, true} {
			// Off the defaults, so WithTCP has something to change;
			// client-only mode needs seeds to build at all.
			c := config{tr: transport.NewMemory(), seeds: []string{"seed:1"}}
			if tc.name == "WithSeeds" {
				c.seeds = nil
			}
			if set {
				tc.opt(&c)
			}
			n, r, err := c.build()
			if err != nil {
				t.Errorf("%s: build: %v", tc.name, err)
			} else if got := tc.ok(&c, n, r); got != set {
				t.Errorf("%s: applied=%v but the configuration reads %v", tc.name, set, got)
			}
		}
	}

	// The table lists exactly the options the package exports.
	f, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			exported = append(exported, fn.Name.Name)
		}
	}
	slices.Sort(covered)
	slices.Sort(exported)
	if !slices.Equal(covered, exported) {
		t.Errorf("options covered %v\noptions exported %v", covered, exported)
	}
}
