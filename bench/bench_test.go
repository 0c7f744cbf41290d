package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the rot guard reads.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func smokeOptions(t *testing.T, trace bool) options {
	return options{
		sizes:   sizes{warmup: 100 * time.Millisecond, measure: 300 * time.Millisecond, keyScale: 0.05, scratch: t.TempDir()},
		seed:    1,
		trace:   trace,
		setups:  1,
		clients: 2,
	}
}

// TestSmoke runs every workload through both passes at a fraction of a
// second and holds the output to BENCHMARK.json: the same workload and
// metric names with the same units and directions, every value finite, no
// failed key, and the counts that must repeat exactly.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, specNames) {
		t.Fatalf("workloads: program has %v, BENCHMARK.json has %v", got, specNames)
	}
	for _, pair := range []struct {
		what string
		defs []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		var want []metricDef
		for _, m := range pair.spec {
			want = append(want, metricDef{m.Name, m.Unit, m.Better})
		}
		if !slices.Equal(pair.defs, want) {
			t.Errorf("%s: the program's metric list and BENCHMARK.json's differ:\nprogram %v\nspec    %v", pair.what, pair.defs, want)
		}
	}

	wantMsgs := map[string]float64{"hit-unary": 4, "miss-durable": 11}
	wantHits := map[string]float64{"hit-unary": 1, "miss-durable": 0, "batch-hit": 1}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var printed strings.Builder
			res, err := run(w, smokeOptions(t, trace), &printed)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			} else {
				for _, d := range printedOnly {
					if !strings.Contains(printed.String(), "  "+d.Name+" ") {
						t.Errorf("%s: the untraced run does not print %s", w.name, d.Name)
					}
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.Name, m, ok)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if want, ok := wantMsgs[w.name]; ok && !trace && res.Metrics["msgs_per_query"].Value != want {
				t.Errorf("%s: msgs_per_query = %v, want exactly %v", w.name, res.Metrics["msgs_per_query"].Value, want)
			}
			if want, ok := wantHits[w.name]; ok && trace && res.Metrics["node.index_hit_ratio"].Value != want {
				t.Errorf("%s: node.index_hit_ratio = %v, want exactly %v", w.name, res.Metrics["node.index_hit_ratio"].Value, want)
			}
		}
	}
}

// calls draws n calls from every client's generator.
func calls(w workload, seed uint64, n int) [][]uint64 {
	const clients = 2
	keys := keyPool(seed, w.keyCount(sizes{warmup: time.Second, measure: time.Second}))
	var out [][]uint64
	for c := 0; c < clients; c++ {
		g := newGenerator(w, keys, seed, c, clients)
		for i := 0; i < n; i++ {
			member, ks, ok := g.call()
			if !ok {
				break
			}
			out = append(out, append([]uint64{uint64(member)}, ks...))
		}
	}
	return out
}

// TestGeneratorDeterminism: the seed alone fixes the key set, the rank
// sequence, each batch's composition and the member each call goes to; and
// the program's configuration is a function of the workload's shape, not
// of its name or the seed.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, other := calls(w, 7, 200), calls(w, 7, 200), calls(w, 8, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different calls", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: different seeds generated the same calls", w.name)
		}
		if w.fresh {
			seen := map[uint64]bool{}
			for _, c := range a {
				for _, k := range c[1:] {
					if seen[k] {
						t.Fatalf("%s: key %d issued twice", w.name, k)
					}
					seen[k] = true
				}
			}
		}

		renamed := w
		renamed.name = "another-name"
		got, want := clusterConfig(renamed), clusterConfig(w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the workload's name reaches node.Config", w.name)
		}
	}
}

// TestValidityGuards: a window is marked invalid when a member drops out of
// the membership or when a fresh-key set runs out.
func TestValidityGuards(t *testing.T) {
	hit, _ := workloadByName("hit-unary")
	opt := smokeOptions(t, false)
	e, err := setup(hit, 1, opt.sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Kill(members - 1); err != nil {
		t.Fatal(err)
	}
	// Long enough for suspicion (4 gossip periods) to convict the victim.
	if w := e.drive(2*time.Second, false); !strings.Contains(w.invalid, "alive members") {
		t.Errorf("a killed member left the window valid (%q)", w.invalid)
	}
	if err := e.close(); err != nil {
		t.Error(err)
	}

	miss, _ := workloadByName("miss-durable")
	opt.sizes.warmup, opt.sizes.measure = 0, 20*time.Millisecond // a key set far smaller than the window needs
	e, err = setup(miss, 1, opt.sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w := e.drive(time.Second, false); !strings.Contains(w.invalid, "exhausted") {
		t.Errorf("a used-up key set left the window valid (%q)", w.invalid)
	}
	dir := e.dataDir
	if err := e.close(); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data dir %s survives Close", dir)
	}
}

// TestTeardownGuard: Close reports a goroutine that outlives the cluster.
func TestTeardownGuard(t *testing.T) {
	hit, _ := workloadByName("hit-unary")
	e, err := setup(hit, 1, smokeOptions(t, false).sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }()
	if err := e.close(); err == nil || !strings.Contains(err.Error(), "goroutines alive") {
		t.Errorf("a leaked goroutine passed the teardown guard (%v)", err)
	}
}
