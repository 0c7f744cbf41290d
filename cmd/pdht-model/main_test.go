package main

import (
	"bytes"
	"strings"
	"testing"
)

func runModel(args ...string) (string, error) {
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// At default flags the binary prints the paper's Table 1 and the solved
// threshold line.
func TestDefaultPrintsTable1(t *testing.T) {
	out, err := runModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== Table 1 — parameters of the sample scenario ==",
		"fUpd             1/86400 1/s\n",
		"env           1/14 ≈ 0.0714\n",
		"fMin = ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default output lacks %q:\n%s", want, out)
		}
	}
}

// Table 1 shows the scenario the flags describe, not the paper's.
func TestTable1ShowsFlaggedScenario(t *testing.T) {
	out, err := runModel("-env", "0.5", "-fupd", "0.001")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fUpd              1/1000 1/s\n", "env            1/2 ≈ 0.5000\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("-env 0.5 -fupd 0.001: output lacks %q:\n%s", want, out)
		}
	}
}

func TestNonFiniteIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-env", "NaN"}, {"-fqry", "Inf"}} {
		out, err := runModel(args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d (%v), want 2", args, code, err)
		}
		if out != "" {
			t.Errorf("%v: printed before refusing:\n%s", args, out)
		}
	}
}
