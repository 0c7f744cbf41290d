package main

import (
	"bytes"
	"strings"
	"testing"

	"pdht/internal/sim"
)

// small is a 200-peer scenario every strategy runs in well under a second.
var small = []string{"-peers", "200", "-keys", "400", "-repl", "4", "-rounds", "60", "-warmup", "20"}

func runSim(args ...string) (string, error) {
	var buf bytes.Buffer
	err := run(append(append([]string{}, small...), args...), &buf)
	return buf.String(), err
}

// Every name sim.ParseStrategy accepts runs and exits clean, and the header
// says "over trie DHT" exactly when the run built one.
func TestEveryStrategyRuns(t *testing.T) {
	builtDHT := map[string]bool{}
	for s := sim.Strategy(0); ; s++ {
		name := s.String()
		if _, err := sim.ParseStrategy(name); err != nil {
			break
		}
		out, err := runSim("-strategy", name)
		if code := exitCode(err); code != 0 {
			t.Errorf("-strategy %s: exit %d (%v)", name, code, err)
			continue
		}
		builtDHT[name] = strings.Contains(out, "\nDHT ")
		header, _, _ := strings.Cut(out, "\n")
		want := "strategy    " + name
		if builtDHT[name] {
			want += " over trie DHT"
		}
		if header != want {
			t.Errorf("-strategy %s: header %q, want %q", name, header, want)
		}
		if !strings.Contains(out, "== message breakdown ==") {
			t.Errorf("-strategy %s: no message breakdown:\n%s", name, out)
		}
	}
	if builtDHT["noIndex"] || builtDHT["partialTopK"] || !builtDHT["partialTTL"] {
		t.Errorf("which strategies built a DHT: %v", builtDHT)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "bogus"},
		{"-churn-offline", "200"}, // offline time without sessions: a static network
	} {
		out, err := runSim(args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d (%v), want 2", args, code, err)
		}
		if strings.Contains(out, "strategy ") {
			t.Errorf("%v: ran a simulation anyway:\n%s", args, out)
		}
	}
}

func TestChurnFlagsChurn(t *testing.T) {
	static, err := runSim()
	if err != nil {
		t.Fatal(err)
	}
	churned, err := runSim("-churn-online", "600", "-churn-offline", "200")
	if err != nil {
		t.Fatal(err)
	}
	if churned == static {
		t.Error("-churn-online/-churn-offline left the run identical to a static network")
	}
}

// A run the simulator itself refuses is a failure, not a usage error.
func TestRunErrorExits1(t *testing.T) {
	if _, err := runSim("-repl", "500"); exitCode(err) != 1 {
		t.Errorf("repl above peers: exit %d (%v), want 1", exitCode(err), err)
	}
}
