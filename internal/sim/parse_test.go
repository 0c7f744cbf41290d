package sim

import "testing"

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{StrategyNoIndex, StrategyIndexAll, StrategyPartialIdeal, StrategyPartialTTL} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := ParseStrategy(""); err == nil {
		t.Error("empty strategy accepted")
	}
}
