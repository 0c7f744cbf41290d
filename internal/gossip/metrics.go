package gossip

import (
	"pdht/internal/obs"
)

// metrics holds the failure detector's instruments. The struct pointer on
// Service is nil when uninstrumented, so every recording site pays one nil
// check and nothing else.
type metrics struct {
	probeRTT      *obs.Histogram // direct-ping round trips that succeeded
	probeFailures *obs.Counter   // direct pings that timed out or errored
	suspicions    *obs.Counter   // alive→suspect transitions declared locally
	refutations   *obs.Counter   // self-refutations (incarnation bumps)
	deaths        *obs.Counter   // suspect→dead confirmations declared locally
}

// RegisterMetrics registers the membership layer's instruments on reg under
// pdht_gossip_* and binds the scrape-time gauges (view version, alive member
// count) to this service. Call before Start; the protocol loop reads the
// instrument handles without synchronization.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	s.metrics = &metrics{
		probeRTT: reg.Histogram("pdht_gossip_probe_seconds",
			"Direct-probe round-trip time of successful pings.", nil),
		probeFailures: reg.Counter("pdht_gossip_probe_failures_total",
			"Direct probes that got no answer (before indirect probing)."),
		suspicions: reg.Counter("pdht_gossip_suspicions_total",
			"Members this node declared suspect after direct and indirect probes failed."),
		refutations: reg.Counter("pdht_gossip_refutations_total",
			"Self-refutations: rumors of this node's death answered with an incarnation bump."),
		deaths: reg.Counter("pdht_gossip_deaths_total",
			"Suspects this node confirmed dead after the suspicion timeout."),
	}
	reg.GaugeFunc("pdht_gossip_view_version",
		"Current membership view version; bumps on every confirmed change.",
		func() float64 { return float64(s.Version()) })
	reg.GaugeFunc("pdht_gossip_members_alive",
		"Non-dead members in the view, self included.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for i := range s.table {
				if s.table[i].Status != StatusDead {
					n++
				}
			}
			return float64(n)
		})
}
