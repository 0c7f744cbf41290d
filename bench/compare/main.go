// Command compare reads two or more result files written by the benchmark's
// -out flag — the first is the parent side, each later one a candidate —
// and prints, per (metric, workload), each side's median and quartiles.
// End-to-end metrics get a verdict against the bound BENCHMARK.json fixes;
// per-layer metrics are listed without one. It exits non-zero when any
// verdict is "worse".
//
//	go run ./compare [-bench ../BENCHMARK.json] parent.jsonl candidate.jsonl
//
// With -baseline it instead summarises the result files it is given into
// the document kept as bench/baseline.json:
//
//	go run ./compare -baseline e2e.jsonl layers.jsonl > baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one line of a result file.
type run struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Calls    int     `json:"calls"`
	Go       string  `json:"go"`
	Nproc    int     `json:"nproc"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func load(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: a result without a workload name (not written by -out?)", path)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// side is one set of runs: values[workload][metric] over them.
type side map[string]map[string][]float64

func collect(runs []run) side {
	s := side{}
	for _, r := range runs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) computes them; a single value is
// all three.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// verdict judges a candidate against the parent for one end-to-end metric
// on one workload. A spread wider than the bound on either side leaves the
// pairing unresolved, unless the runs do not overlap at all: every run of
// the candidate beats every run of the parent (better), or is worse than
// every run of the parent by more than the bound (worse). Otherwise the
// medians decide: worse beyond the bound, better beyond both the bound and
// the parent's own quartile distance, else the same.
func verdict(m metric, parent, cand []float64) string {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(cand)
	if pmed == 0 {
		if cmed == 0 {
			return "same"
		}
		return "unresolved"
	}
	spread := (pq3 - pq1) / abs(pmed)
	if cmed != 0 && (cq3-cq1)/abs(cmed) > spread {
		spread = (cq3 - cq1) / abs(cmed)
	}
	change := sign * (cmed - pmed) / abs(pmed)
	switch {
	case spread > m.Bound && allBeyond(-sign, parent, cand, 0):
		return "better"
	case spread > m.Bound && allBeyond(sign, parent, cand, m.Bound):
		return "worse"
	case spread > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case -change > (pq3-pq1)/abs(pmed) && -change > m.Bound:
		return "better"
	default:
		return "same"
	}
}

// allBeyond reports whether every candidate run lies beyond every parent
// run in direction dir (+1 up, -1 down) by more than margin, taken as a
// share of that parent run.
func allBeyond(dir float64, parent, cand []float64, margin float64) bool {
	for _, c := range cand {
		for _, p := range parent {
			if dir*(c-p) <= margin*abs(p) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "the benchmark definition holding metric directions and bounds")
	asBaseline := flag.Bool("baseline", false, "summarise the result files into the baseline document instead of comparing them")
	flag.Parse()
	if flag.NArg() < 2 && !(*asBaseline && flag.NArg() == 1) {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] parent.jsonl candidate.jsonl [candidate.jsonl ...]\n       compare [-bench BENCHMARK.json] -baseline runs.jsonl [runs.jsonl ...]")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fail(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fail(fmt.Errorf("%s: %w", *benchPath, err))
	}
	sides := make([]side, flag.NArg())
	var all []run
	for i, path := range flag.Args() {
		runs, err := load(path)
		if err != nil {
			fail(err)
		}
		sides[i] = collect(runs)
		all = append(all, runs...)
	}
	if *asBaseline {
		if err := baseline(os.Stdout, sp, all); err != nil {
			fail(err)
		}
		return
	}

	worse := 0
	row := func(v []float64) string {
		if len(v) == 0 {
			return fmt.Sprintf("%38s", "-")
		}
		q1, med, q3 := quartiles(v)
		return fmt.Sprintf("%14.4f [%9.4g %9.4g] n=%-2d", med, q1, q3, len(v))
	}
	for _, w := range sp.Workloads {
		fmt.Printf("\n%s\n", w.Name)
		for _, group := range []struct {
			metrics []metric
			gated   bool
		}{{sp.EndToEnd, true}, {sp.PerLayer, false}} {
			for _, m := range group.metrics {
				parent := sides[0][w.Name][m.Name]
				if len(parent) == 0 {
					continue // this side ran another pass (--trace) or workload
				}
				fmt.Printf("  %-30s %-6s %s", m.Name, m.Unit, row(parent))
				for _, s := range sides[1:] {
					cand := s[w.Name][m.Name]
					fmt.Printf(" | %s", row(cand))
					if group.gated && len(cand) > 0 {
						v := verdict(m, parent, cand)
						fmt.Printf(" %-10s", v)
						if v == "worse" {
							worse++
						}
					}
				}
				fmt.Println()
			}
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d end-to-end pairing(s) worse than the bound allows\n", worse)
		os.Exit(1)
	}
}

// baseline writes the document kept as bench/baseline.json: the
// environment the runs were taken in and, per workload, the median and
// quartiles of every metric BENCHMARK.json names, one metric to a line.
func baseline(w io.Writer, sp spec, runs []run) error {
	if len(runs) == 0 {
		return fmt.Errorf("no runs to summarise")
	}
	env := runs[0]
	for _, r := range runs {
		if r.Seed != env.Seed || r.Seconds != env.Seconds || r.Go != env.Go || r.Nproc != env.Nproc {
			return fmt.Errorf("runs differ in seed, window, Go version or nproc; a baseline is one setting")
		}
	}
	all := collect(runs)
	fmt.Fprintf(w, "{\n \"statement\": \"loopback, single process: 5 members and the load clients share one process and 127.0.0.1; real sockets, no real link\",\n")
	fmt.Fprintf(w, " \"nproc\": %d,\n \"go\": %q,\n \"seed\": %d,\n \"run_seconds\": %s,\n \"workloads\": {", env.Nproc, env.Go, env.Seed, num(env.Seconds))
	for i, wl := range sp.Workloads {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n  %q: {", wl.Name)
		for trace, group := range []struct {
			key     string
			metrics []metric
		}{{"end_to_end", sp.EndToEnd}, {"per_layer", sp.PerLayer}} {
			var calls []float64
			for _, r := range runs {
				if r.Workload == wl.Name && r.Trace == trace {
					calls = append(calls, float64(r.Calls))
				}
			}
			if len(calls) == 0 {
				return fmt.Errorf("%s: no %s runs", wl.Name, group.key)
			}
			_, medCalls, _ := quartiles(calls)
			if trace > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "\n   \"%s_calls\": %s,\n   %q: {", group.key, num(medCalls), group.key)
			for j, m := range group.metrics {
				v := all[wl.Name][m.Name]
				if len(v) == 0 {
					return fmt.Errorf("%s: metric %s in no run", wl.Name, m.Name)
				}
				q1, med, q3 := quartiles(v)
				if j > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "\n    %q: {\"median\": %s, \"q1\": %s, \"q3\": %s, \"runs\": %d, \"unit\": %q}", m.Name, num(med), num(q1), num(q3), len(v), m.Unit)
			}
			fmt.Fprint(w, "\n   }")
		}
		fmt.Fprint(w, "\n  }")
	}
	_, err := fmt.Fprint(w, "\n }\n}\n")
	return err
}

// num prints a value with all its digits and no exponent.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
