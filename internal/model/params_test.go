package model

import (
	"math"
	"testing"
)

func TestDefaultScenarioMatchesTable1(t *testing.T) {
	p := DefaultScenario()
	if p.NumPeers != 20000 {
		t.Errorf("NumPeers = %d, want 20000", p.NumPeers)
	}
	if p.Keys != 40000 {
		t.Errorf("Keys = %d, want 40000", p.Keys)
	}
	if p.Stor != 100 {
		t.Errorf("Stor = %d, want 100", p.Stor)
	}
	if p.Repl != 50 {
		t.Errorf("Repl = %d, want 50", p.Repl)
	}
	if p.Alpha != 1.2 {
		t.Errorf("Alpha = %v, want 1.2", p.Alpha)
	}
	if math.Abs(p.FQry-1.0/30.0) > 1e-15 {
		t.Errorf("FQry = %v, want 1/30", p.FQry)
	}
	if math.Abs(p.FUpd-1.0/86400.0) > 1e-15 {
		t.Errorf("FUpd = %v, want 1/86400", p.FUpd)
	}
	if math.Abs(p.Env-1.0/14.0) > 1e-15 {
		t.Errorf("Env = %v, want 1/14", p.Env)
	}
	if p.Dup != 1.8 || p.Dup2 != 1.8 {
		t.Errorf("Dup/Dup2 = %v/%v, want 1.8/1.8", p.Dup, p.Dup2)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default scenario does not validate: %v", err)
	}
}

func TestFrequencyGrid(t *testing.T) {
	g := FrequencyGrid()
	if len(g) != 8 {
		t.Fatalf("grid has %d points, want 8", len(g))
	}
	wantPeriods := []float64{30, 60, 120, 300, 600, 1800, 3600, 7200}
	for i, f := range g {
		if math.Abs(1/f-wantPeriods[i]) > 1e-9 {
			t.Errorf("grid[%d] = %v, want 1/%v", i, f, wantPeriods[i])
		}
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Error("grid must be strictly decreasing in frequency")
		}
	}
}

func TestFormatFrequency(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{1.0 / 30.0, "1/30"},
		{1.0 / 7200.0, "1/7200"},
		{0, "0"},
		{-1, "0"},
		{0.123, "0.123"},
	}
	for _, c := range cases {
		if got := FormatFrequency(c.f); got != c.want {
			t.Errorf("FormatFrequency(%v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	base := DefaultScenario()
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"peers", func(p *Params) { p.NumPeers = 1 }},
		{"keys", func(p *Params) { p.Keys = 0 }},
		{"stor", func(p *Params) { p.Stor = 0 }},
		{"repl-zero", func(p *Params) { p.Repl = 0 }},
		{"repl-exceeds", func(p *Params) { p.Repl = p.NumPeers + 1 }},
		{"alpha-neg", func(p *Params) { p.Alpha = -0.1 }},
		{"alpha-nan", func(p *Params) { p.Alpha = math.NaN() }},
		{"alpha-inf", func(p *Params) { p.Alpha = math.Inf(1) }},
		{"fqry-neg", func(p *Params) { p.FQry = -1 }},
		{"fqry-nan", func(p *Params) { p.FQry = math.NaN() }},
		{"fqry-inf", func(p *Params) { p.FQry = math.Inf(1) }},
		{"fupd-neg", func(p *Params) { p.FUpd = -1 }},
		{"fupd-inf", func(p *Params) { p.FUpd = math.Inf(1) }},
		{"env-neg", func(p *Params) { p.Env = -0.5 }},
		{"env-nan", func(p *Params) { p.Env = math.NaN() }},
		{"env-inf", func(p *Params) { p.Env = math.Inf(1) }},
		{"env-neg-inf", func(p *Params) { p.Env = math.Inf(-1) }},
		{"dup-lt1", func(p *Params) { p.Dup = 0.9 }},
		{"dup-nan", func(p *Params) { p.Dup = math.NaN() }},
		{"dup-inf", func(p *Params) { p.Dup = math.Inf(1) }},
		{"dup2-lt1", func(p *Params) { p.Dup2 = 0 }},
		{"dup2-nan", func(p *Params) { p.Dup2 = math.NaN() }},
		{"dup2-inf", func(p *Params) { p.Dup2 = math.Inf(1) }},
	}
	for _, m := range mutations {
		p := base
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", m.name)
		}
	}
}

func TestTotalQueries(t *testing.T) {
	p := DefaultScenario()
	want := 20000.0 / 30.0
	if got := p.TotalQueries(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalQueries = %v, want %v", got, want)
	}
}

func TestWithFQryDoesNotMutate(t *testing.T) {
	p := DefaultScenario()
	q := p.WithFQry(0.5)
	if q.FQry != 0.5 {
		t.Errorf("WithFQry result = %v", q.FQry)
	}
	if p.FQry != 1.0/30.0 {
		t.Error("WithFQry mutated the receiver")
	}
	if q.NumPeers != p.NumPeers {
		t.Error("WithFQry changed unrelated fields")
	}
}
