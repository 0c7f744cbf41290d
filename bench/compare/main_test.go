package main

import "testing"

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := metric{Name: "latency", Better: "lower", Bound: 0.10}
	qps := metric{Name: "throughput", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name         string
		m            metric
		parent, cand []float64
		want         string
	}{
		{"within the bound", lat, []float64{100, 101, 102}, []float64{104, 105, 106}, "same"},
		{"slower beyond the bound", lat, []float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{"every run faster", lat, []float64{100, 101, 102}, []float64{80, 81, 82}, "better"},
		{"every run faster despite spread", lat, []float64{100, 130, 160}, []float64{50, 70, 90}, "better"},
		{"every run slower despite spread", lat, []float64{100, 130, 160}, []float64{500, 600, 700}, "worse"},
		{"every run fewer despite spread", qps, []float64{1000, 1300, 1600}, []float64{300, 400, 500}, "worse"},
		{"every run slower, but not by the bound", lat, []float64{100, 130, 160}, []float64{165, 200, 240}, "unresolved"},
		{"spread wider than the bound", lat, []float64{100, 130, 160}, []float64{110, 140, 170}, "unresolved"},
		{"higher is better: fewer is worse", qps, []float64{1000, 1010, 1020}, []float64{800, 810, 820}, "worse"},
		{"higher is better: more is better", qps, []float64{1000, 1010, 1020}, []float64{1200, 1210, 1220}, "better"},
		{"an exact count that repeats", lat, []float64{4, 4, 4}, []float64{4, 4, 4}, "same"},
	} {
		if got := verdict(tc.m, tc.parent, tc.cand); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
