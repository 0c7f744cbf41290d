package gossip

import (
	"context"
	"strings"
	"testing"

	"pdht/internal/obs"
	"pdht/internal/transport"
)

// TestMetricsRefutationAndGauges drives the state machine directly: a rumor
// of our own death must bump the refutation counter, and the scrape-time
// gauges must track version and alive count.
func TestMetricsRefutationAndGauges(t *testing.T) {
	noCall := func(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, true, nil
	}
	s, err := New(Config{Addr: "a"}, noCall)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)

	s.MergeState(transport.Gossip{Updates: []transport.PeerState{
		{Addr: "b", Status: uint8(StatusAlive)},
		{Addr: "a", Status: uint8(StatusDead), Incarnation: 0}, // rumor of our death
	}})
	if got := s.metrics.refutations.Value(); got != 1 {
		t.Errorf("refutations = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "pdht_gossip_view_version 2") {
		t.Errorf("view version gauge wrong:\n%s", out)
	}
	if !strings.Contains(out, "pdht_gossip_members_alive 2") {
		t.Errorf("alive gauge wrong:\n%s", out)
	}
}

// TestMetricsSuspicion exercises the probe-failure path: a member that
// answers nothing becomes suspect and the counters say so.
func TestMetricsSuspicion(t *testing.T) {
	dead := func(ctx context.Context, addr string, msg transport.Gossip) (transport.Gossip, bool, error) {
		return transport.Gossip{}, false, context.DeadlineExceeded
	}
	s, err := New(Config{Addr: "a"}, dead)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterMetrics(obs.NewRegistry())
	s.MergeState(transport.Gossip{Updates: []transport.PeerState{{Addr: "b", Status: uint8(StatusAlive)}}})

	s.probeRound()
	if got := s.metrics.probeFailures.Value(); got != 1 {
		t.Errorf("probe failures = %d, want 1", got)
	}
	if got := s.metrics.suspicions.Value(); got != 1 {
		t.Errorf("suspicions = %d, want 1", got)
	}
}
