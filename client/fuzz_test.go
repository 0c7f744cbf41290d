package client

import (
	"errors"
	"testing"
)

// The two query parsers take text straight from a user or a caller's
// caller. Both targets hold them to the same contract on arbitrary input:
// no panic, and every refusal is ErrBadQuery. Seed corpora are committed
// under testdata/fuzz; `make fuzz-smoke` runs each for 20 s.

func FuzzParseTopK(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		k, terms, err := ParseTopK(s)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("ParseTopK(%q) error %v is not ErrBadQuery", s, err)
			}
			return
		}
		if k < 1 || len(terms) < 1 {
			t.Fatalf("ParseTopK(%q) accepted k = %d with %d terms", s, k, len(terms))
		}
	})
}

func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := parseKey(s); err != nil && !errors.Is(err, ErrBadQuery) {
			t.Fatalf("parseKey(%q) error %v is not ErrBadQuery", s, err)
		}
	})
}
