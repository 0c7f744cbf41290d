package stats

import (
	"strings"
	"testing"
)

func TestMsgClassString(t *testing.T) {
	for _, c := range Classes() {
		if s := c.String(); strings.HasPrefix(s, "msgclass(") {
			t.Errorf("class %d has no name", int(c))
		}
	}
	if s := MsgClass(42).String(); s != "msgclass(42)" {
		t.Errorf("unknown class string = %q", s)
	}
}

func TestFormatSnapshot(t *testing.T) {
	if got := FormatSnapshot(map[MsgClass]int64{MsgBroadcast: 0}); got != "(no messages)" {
		t.Errorf("empty snapshot = %q", got)
	}
	got := FormatSnapshot(map[MsgClass]int64{MsgBroadcast: 3, MsgUpdate: 1, MsgMaintenance: 0})
	if !strings.Contains(got, "broadcast=3") || !strings.Contains(got, "update=1") {
		t.Errorf("snapshot = %q, want broadcast=3 and update=1", got)
	}
	if strings.Contains(got, "maintenance") {
		t.Errorf("snapshot %q should omit zero classes", got)
	}
}
