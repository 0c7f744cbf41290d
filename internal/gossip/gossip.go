// Package gossip is the decentralized membership layer of the live node
// subsystem: a SWIM-style failure detector (Das et al.) with the
// dissemination style of memberlist — periodic direct pings, indirect
// ping-req probing through k helpers, suspicion with incarnation numbers,
// membership deltas piggybacked on every protocol message, and a periodic
// full-state anti-entropy exchange that bounds convergence time even when
// piggyback traffic is sparse.
//
// The package owns no sockets: it speaks transport.Gossip values through an
// injected Caller and answers inbound messages via HandleMessage, so the
// same state machine runs over the in-memory loopback transport and TCP.
// The node layer (internal/node) wires it to the OpGossip RPC.
//
// Confirmed membership changes — a member joining, a suspect confirmed
// dead, a dead member refuting with a higher incarnation — bump a
// monotonically increasing view version and fire the OnChange callback
// with the new alive set. Suspicion alone does not: a suspect stays in the
// view (and keeps being routed to) until the suspicion timeout confirms
// it, exactly the grace period that lets a slow-but-live peer refute.
package gossip

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"pdht/internal/transport"
)

// Status is a member's health in the protocol's three-state machine.
type Status uint8

const (
	// StatusAlive is the default: the member answers probes, or someone
	// who can reach it says so.
	StatusAlive Status = iota
	// StatusSuspect means a probe round failed directly and indirectly.
	// The member stays in the view; it has SuspicionTimeout to refute.
	StatusSuspect
	// StatusDead is a confirmed departure: the suspicion timeout expired
	// (or a peer's did). Only a higher incarnation resurrects the member.
	StatusDead
)

// String returns the status label used in reports.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Member is one row of the membership table.
type Member struct {
	Addr        string
	Status      Status
	Incarnation uint64
}

// Caller sends one gossip message to addr and returns the peer's reply.
// ok mirrors Response.OK (an indirect probe's verdict); err is any
// transport- or application-level failure, treated as "peer did not
// answer". Callers must be safe for concurrent use.
type Caller func(ctx context.Context, addr string, msg transport.Gossip) (reply transport.Gossip, ok bool, err error)

// Config parameterizes one membership service.
type Config struct {
	// Addr is this node's own address — its identity in the table.
	Addr string
	// ProbeInterval is the SWIM protocol period. Default 1s.
	ProbeInterval time.Duration
	// SuspicionTimeout is how long a suspect may stay silent before it
	// is confirmed dead. Default 4×ProbeInterval.
	SuspicionTimeout time.Duration
	// SyncInterval is the anti-entropy period: every SyncInterval the
	// service exchanges full membership tables with one random live
	// member. Default 4×ProbeInterval.
	SyncInterval time.Duration
	// DeadSyncFraction is the probability that one anti-entropy round
	// targets a random confirmed-dead (but still retained) member instead
	// of a live one — memberlist's "gossip to the dead". Without it a
	// two-sided partition deadlocks on heal: both sides hold each other
	// dead, dead members are never probed or synced, and no message ever
	// crosses the healed link again. One successful dead-sync exchange
	// resurrects the target (it refutes the death claim in our payload by
	// bumping its incarnation, and its reply already carries the bump),
	// after which normal dissemination re-merges the halves. Default
	// 0.125; negative disables.
	DeadSyncFraction float64
	// OnChange fires after every confirmed membership change with the
	// new alive set (sorted, self included) and the view version that
	// produced it. It is called without internal locks held and may fire
	// concurrently from the protocol loop and inbound handlers, so
	// notifications can arrive out of order: receivers must use the
	// version to discard stale ones.
	OnChange func(alive []string, version uint64)
}

const (
	// indirectProbes is k, the number of helpers asked to ping-req a peer
	// that failed its direct probe.
	indirectProbes = 2
	// retransmitMult scales how often each queued update is piggybacked
	// before it is dropped: retransmitMult × ⌈log₂(n+1)⌉ transmissions.
	retransmitMult = 4
	// maxPiggyback caps the updates attached to one message.
	maxPiggyback = 8
	// deadRetentionSyncs is how many SyncIntervals a confirmed-dead member
	// stays in the table before it is forgotten. Retention blocks
	// resurrection by stale alive claims still circulating; forgetting
	// bounds the table (and every anti-entropy payload) in a cluster
	// visited by short-lived members, which would otherwise grow one
	// permanent dead row per visitor. 20 syncs is far beyond any
	// dissemination tail. Forgetting changes no view: the member was
	// already out of the alive set.
	deadRetentionSyncs = 20
)

func (c *Config) setDefaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.SuspicionTimeout == 0 {
		c.SuspicionTimeout = 4 * c.ProbeInterval
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 4 * c.ProbeInterval
	}
	if c.DeadSyncFraction == 0 {
		c.DeadSyncFraction = 0.125
	}
}

func (c Config) validate() error {
	switch {
	case c.Addr == "":
		return fmt.Errorf("gossip: empty Addr")
	case c.ProbeInterval < 0 || c.SuspicionTimeout < 0 || c.SyncInterval < 0:
		return fmt.Errorf("gossip: negative interval")
	}
	return nil
}

// memberState is the mutable side of one table row.
type memberState struct {
	status      Status
	incarnation uint64
	// since is when the current status was entered — the suspicion
	// clock while suspect, the retention clock while dead.
	since time.Time
}

// queuedUpdate is one membership delta awaiting piggyback dissemination.
type queuedUpdate struct {
	state transport.PeerState
	left  int // transmissions remaining
}

// Service is one node's membership state machine plus its protocol loop.
type Service struct {
	cfg  Config
	call Caller

	mu      sync.Mutex
	members map[string]*memberState // every address ever heard of, incl. self
	queue   []*queuedUpdate
	version uint64
	ring    []string // shuffled probe order over non-dead, non-self members
	ringIdx int
	rng     *rand.Rand

	stop     chan struct{}
	done     sync.WaitGroup
	stopOnce sync.Once

	// metrics is set by RegisterMetrics before Start, nil otherwise.
	metrics *metrics
}

// New builds a stopped service; Start launches the protocol loop. The
// service immediately knows exactly one member: itself, alive, incarnation
// zero, at view version 1.
func New(cfg Config, call Caller) (*Service, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if call == nil {
		return nil, fmt.Errorf("gossip: nil Caller")
	}
	// The private rng (probe-order shuffling, helper selection) is seeded
	// from the node's own address.
	h := fnv.New64a()
	h.Write([]byte(cfg.Addr))
	s := &Service{
		cfg:     cfg,
		call:    call,
		members: map[string]*memberState{cfg.Addr: {status: StatusAlive}},
		version: 1,
		rng:     rand.New(rand.NewPCG(h.Sum64()|1, 0x2545f4914f6cdd1d)),
		stop:    make(chan struct{}),
	}
	return s, nil
}

// probeTimeout bounds each direct or indirect probe RPC and each sync
// exchange: half a protocol period.
func (s *Service) probeTimeout() time.Duration { return s.cfg.ProbeInterval / 2 }

// Start launches the probe and anti-entropy loops.
func (s *Service) Start() {
	s.done.Add(1)
	go s.loop()
}

// Stop halts the protocol loops and waits for them. Idempotent; inbound
// HandleMessage calls remain safe after Stop (the table just stops probing).
func (s *Service) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.done.Wait()
}

// Join bootstraps membership from a seed peer: one full-state anti-entropy
// exchange. The seed learns this node; this node adopts everything the
// seed knows (including, after a crash-restart, its own death — which it
// refutes with a higher incarnation on the spot).
func (s *Service) Join(ctx context.Context, seed string) error {
	s.mu.Lock()
	msg := transport.Gossip{
		Kind: transport.GossipSync, From: s.cfg.Addr,
		Full: true, Updates: s.fullStateLocked(),
	}
	s.mu.Unlock()
	reply, _, err := s.call(ctx, seed, msg)
	if err != nil {
		return fmt.Errorf("gossip: join %s: %w", seed, err)
	}
	s.merge(reply.Updates)
	return nil
}

// HandleMessage answers one inbound gossip message — the server side of
// the OpGossip RPC. ok is the Response.OK verdict (always true except for
// a failed indirect probe).
func (s *Service) HandleMessage(msg transport.Gossip) (reply transport.Gossip, ok bool) {
	// Any message proves its sender exists; an unknown sender enters the
	// table alive at incarnation 0 (its own updates raise that if stale).
	if msg.From != "" && msg.From != s.cfg.Addr {
		s.merge(append([]transport.PeerState{
			{Addr: msg.From, Status: uint8(StatusAlive)},
		}, msg.Updates...))
	} else {
		s.merge(msg.Updates)
	}

	switch msg.Kind {
	case transport.GossipPing:
		return s.ackWithPiggyback(), true
	case transport.GossipPingReq:
		if msg.Target == "" || msg.Target == s.cfg.Addr {
			return s.ackWithPiggyback(), msg.Target == s.cfg.Addr
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.probeTimeout())
		defer cancel()
		s.mu.Lock()
		ping := transport.Gossip{Kind: transport.GossipPing, From: s.cfg.Addr, Updates: s.takePiggybackLocked()}
		s.mu.Unlock()
		r, rok, err := s.call(ctx, msg.Target, ping)
		if err == nil && rok {
			s.merge(r.Updates)
			return s.ackWithPiggyback(), true
		}
		return s.ackWithPiggyback(), false
	case transport.GossipSync:
		s.mu.Lock()
		reply = transport.Gossip{
			Kind: transport.GossipAck, From: s.cfg.Addr,
			Full: true, Updates: s.fullStateLocked(),
		}
		s.mu.Unlock()
		return reply, true
	default:
		return s.ackWithPiggyback(), true
	}
}

// MergeState folds a remote membership payload into the table — the
// convergence accelerator behind stale-view responses.
func (s *Service) MergeState(msg transport.Gossip) {
	s.merge(msg.Updates)
}

// State returns the full membership table as a wire payload — what a
// stale-view response carries back to the out-of-date caller.
func (s *Service) State() transport.Gossip {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport.Gossip{
		Kind: transport.GossipSync, From: s.cfg.Addr,
		Full: true, Updates: s.fullStateLocked(),
	}
}

// Alive returns the sorted addresses of all non-dead members, self
// included — the membership list views are built from. Suspects count as
// alive: they stay routable until confirmed dead.
func (s *Service) Alive() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aliveLocked()
}

// Version returns the current view version. It bumps exactly on confirmed
// membership changes, never on suspicion alone.
func (s *Service) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Snapshot returns the full table sorted by address — the status view the
// CLI renders.
func (s *Service) Snapshot() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, 0, len(s.members))
	for addr, m := range s.members {
		out = append(out, Member{Addr: addr, Status: m.status, Incarnation: m.incarnation})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ---- protocol loops ----

func (s *Service) loop() {
	defer s.done.Done()
	probe := time.NewTicker(s.cfg.ProbeInterval)
	defer probe.Stop()
	sync := time.NewTicker(s.cfg.SyncInterval)
	defer sync.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-probe.C:
			s.expireSuspects()
			s.probeRound()
		case <-sync.C:
			s.syncRound()
		}
	}
}

// probeRound runs one SWIM protocol period: direct ping of the next member
// in the shuffled probe order, indirect ping-req through k helpers on
// failure, suspicion when both fail.
func (s *Service) probeRound() {
	s.mu.Lock()
	target := s.nextTargetLocked()
	if target == "" {
		s.mu.Unlock()
		return
	}
	ping := transport.Gossip{Kind: transport.GossipPing, From: s.cfg.Addr, Updates: s.takePiggybackLocked()}
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.probeTimeout())
	pingStart := time.Now()
	reply, ok, err := s.call(ctx, target, ping)
	cancel()
	if err == nil && ok {
		if s.metrics != nil {
			s.metrics.probeRTT.Observe(time.Since(pingStart))
		}
		s.merge(reply.Updates)
		return
	}
	if s.metrics != nil {
		s.metrics.probeFailures.Inc()
	}

	// Indirect probes: ask k other live members to ping the target. One
	// positive verdict clears it; silence from everyone makes it suspect.
	s.mu.Lock()
	helpers := s.pickHelpersLocked(target, indirectProbes)
	req := transport.Gossip{
		Kind: transport.GossipPingReq, From: s.cfg.Addr,
		Target: target, Updates: s.takePiggybackLocked(),
	}
	s.mu.Unlock()
	acked := false
	var wg sync.WaitGroup
	verdicts := make(chan bool, len(helpers))
	for _, h := range helpers {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			// An indirect probe crosses two hops; give it both budgets.
			ctx, cancel := context.WithTimeout(context.Background(), 2*s.probeTimeout())
			defer cancel()
			r, rok, err := s.call(ctx, h, req)
			if err == nil {
				s.merge(r.Updates)
				verdicts <- rok
			}
		}(h)
	}
	wg.Wait()
	close(verdicts)
	for v := range verdicts {
		if v {
			acked = true
		}
	}
	if !acked {
		s.suspect(target)
	}
}

// syncRound runs one anti-entropy exchange with a random live member — or,
// a DeadSyncFraction of the time, with a random retained dead member, the
// resurrection path that lets a healed partition re-merge (see
// Config.DeadSyncFraction).
func (s *Service) syncRound() {
	s.mu.Lock()
	peers := s.otherAliveLocked()
	if s.cfg.DeadSyncFraction > 0 && s.rng.Float64() < s.cfg.DeadSyncFraction {
		if dead := s.deadLocked(); len(dead) > 0 {
			peers = dead
		}
	}
	if len(peers) == 0 {
		s.mu.Unlock()
		return
	}
	peer := peers[s.rng.IntN(len(peers))]
	msg := transport.Gossip{
		Kind: transport.GossipSync, From: s.cfg.Addr,
		Full: true, Updates: s.fullStateLocked(),
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), s.probeTimeout())
	defer cancel()
	reply, _, err := s.call(ctx, peer, msg)
	if err == nil {
		s.merge(reply.Updates)
	}
}

// expireSuspects confirms death for suspects whose refutation window
// closed, and forgets dead members whose retention lapsed.
func (s *Service) expireSuspects() {
	now := time.Now()
	s.mu.Lock()
	changed := false
	for addr, m := range s.members {
		switch {
		case m.status == StatusSuspect && now.Sub(m.since) >= s.cfg.SuspicionTimeout:
			m.status = StatusDead
			m.since = now
			s.version++
			s.enqueueLocked(transport.PeerState{Addr: addr, Status: uint8(StatusDead), Incarnation: m.incarnation})
			if s.metrics != nil {
				s.metrics.deaths.Inc()
			}
			changed = true
		case m.status == StatusDead && now.Sub(m.since) >= deadRetentionSyncs*s.cfg.SyncInterval:
			delete(s.members, addr)
		}
	}
	s.finishMutationLocked(changed)
}

// suspect marks a probe-failed member. No version bump and no OnChange:
// the alive set is unchanged until the suspicion is confirmed.
func (s *Service) suspect(addr string) {
	s.mu.Lock()
	m, known := s.members[addr]
	if known && m.status == StatusAlive {
		m.status = StatusSuspect
		m.since = time.Now()
		s.enqueueLocked(transport.PeerState{Addr: addr, Status: uint8(StatusSuspect), Incarnation: m.incarnation})
		if s.metrics != nil {
			s.metrics.suspicions.Inc()
		}
	}
	s.mu.Unlock()
}

// ---- table mutation ----

// merge folds a batch of updates into the table and fires OnChange once if
// the alive set changed.
func (s *Service) merge(updates []transport.PeerState) {
	if len(updates) == 0 {
		return
	}
	s.mu.Lock()
	changed := false
	for _, u := range updates {
		if s.applyLocked(u) {
			changed = true
		}
	}
	s.finishMutationLocked(changed)
}

// finishMutationLocked rebuilds the probe ring and fires OnChange outside
// the lock when a mutation changed the alive set. Callers hold s.mu; it is
// released here.
func (s *Service) finishMutationLocked(changed bool) {
	if !changed {
		s.mu.Unlock()
		return
	}
	s.rebuildRingLocked()
	alive, version := s.aliveLocked(), s.version
	cb := s.cfg.OnChange
	s.mu.Unlock()
	if cb != nil {
		cb(alive, version)
	}
}

// applyLocked folds one update in, returning whether the alive set changed.
// The precedence rules are SWIM's: a higher incarnation always wins; at
// equal incarnations the more severe status wins (Dead > Suspect > Alive).
// Claims about self are special: any non-alive claim at our current
// incarnation (or above) is refuted by bumping our incarnation past it and
// gossiping the refutation.
func (s *Service) applyLocked(u transport.PeerState) bool {
	if u.Addr == "" {
		return false
	}
	status := Status(u.Status)
	if u.Addr == s.cfg.Addr {
		self := s.members[s.cfg.Addr]
		switch {
		case status != StatusAlive && u.Incarnation >= self.incarnation:
			self.incarnation = u.Incarnation + 1
			s.enqueueLocked(transport.PeerState{Addr: s.cfg.Addr, Status: uint8(StatusAlive), Incarnation: self.incarnation})
			if s.metrics != nil {
				s.metrics.refutations.Inc()
			}
		case status == StatusAlive && u.Incarnation > self.incarnation:
			self.incarnation = u.Incarnation
		}
		return false
	}
	m, known := s.members[u.Addr]
	if !known {
		s.members[u.Addr] = &memberState{
			status: status, incarnation: u.Incarnation,
			since: time.Now(),
		}
		s.enqueueLocked(u)
		if status != StatusDead {
			s.version++
			return true
		}
		// Learning that a stranger died changes nothing we route to, but
		// remembering it (for deadRetentionSyncs sync periods) blocks
		// resurrection by stale alive claims.
		return false
	}
	newer := u.Incarnation > m.incarnation ||
		(u.Incarnation == m.incarnation && status > m.status)
	if !newer {
		return false
	}
	wasDead := m.status == StatusDead
	m.incarnation = u.Incarnation
	if status != m.status {
		m.since = time.Now()
	}
	m.status = status
	s.enqueueLocked(u)
	if (status == StatusDead) != wasDead {
		s.version++
		return true
	}
	return false
}

// enqueueLocked queues one update for piggyback dissemination, superseding
// any older queued claim about the same address.
func (s *Service) enqueueLocked(u transport.PeerState) {
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.state.Addr != u.Addr {
			kept = append(kept, q)
		}
	}
	s.queue = kept
	limit := retransmitMult * int(math.Ceil(math.Log2(float64(len(s.members)+1))))
	if limit < retransmitMult {
		limit = retransmitMult
	}
	s.queue = append(s.queue, &queuedUpdate{state: u, left: limit})
}

// takePiggybackLocked selects up to maxPiggyback queued updates —
// freshest (most transmissions remaining) first — and spends one
// transmission on each.
func (s *Service) takePiggybackLocked() []transport.PeerState {
	if len(s.queue) == 0 {
		return nil
	}
	sort.SliceStable(s.queue, func(i, j int) bool { return s.queue[i].left > s.queue[j].left })
	n := len(s.queue)
	if n > maxPiggyback {
		n = maxPiggyback
	}
	out := make([]transport.PeerState, 0, n)
	for _, q := range s.queue[:n] {
		out = append(out, q.state)
		q.left--
	}
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.left > 0 {
			kept = append(kept, q)
		}
	}
	s.queue = kept
	return out
}

// fullStateLocked renders the whole table as a wire payload.
func (s *Service) fullStateLocked() []transport.PeerState {
	out := make([]transport.PeerState, 0, len(s.members))
	for addr, m := range s.members {
		out = append(out, transport.PeerState{Addr: addr, Status: uint8(m.status), Incarnation: m.incarnation})
	}
	return out
}

func (s *Service) aliveLocked() []string {
	out := make([]string, 0, len(s.members))
	for addr, m := range s.members {
		if m.status != StatusDead {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// deadLocked returns the addresses of retained dead members.
func (s *Service) deadLocked() []string {
	var out []string
	for addr, m := range s.members {
		if m.status == StatusDead {
			out = append(out, addr)
		}
	}
	return out
}

// otherAliveLocked is aliveLocked minus self.
func (s *Service) otherAliveLocked() []string {
	alive := s.aliveLocked()
	out := alive[:0]
	for _, a := range alive {
		if a != s.cfg.Addr {
			out = append(out, a)
		}
	}
	return out
}

// rebuildRingLocked reshuffles the probe order over current non-dead
// members. Round-robin over a shuffled ring (instead of uniform random
// picks) bounds the time between two probes of the same member — SWIM's
// deterministic detection-latency trick.
func (s *Service) rebuildRingLocked() {
	s.ring = s.otherAliveLocked()
	s.rng.Shuffle(len(s.ring), func(i, j int) { s.ring[i], s.ring[j] = s.ring[j], s.ring[i] })
	s.ringIdx = 0
}

// nextTargetLocked advances the probe ring, reshuffling when exhausted.
func (s *Service) nextTargetLocked() string {
	if s.ringIdx >= len(s.ring) {
		s.rebuildRingLocked()
	}
	if len(s.ring) == 0 {
		return ""
	}
	t := s.ring[s.ringIdx]
	s.ringIdx++
	// The ring can lag the table (rebuilt only on alive-set changes and
	// wrap-around); skip members that died since the last shuffle.
	if m, ok := s.members[t]; !ok || m.status == StatusDead {
		return ""
	}
	return t
}

// pickHelpersLocked selects up to k live members other than self and the
// probe target.
func (s *Service) pickHelpersLocked(target string, k int) []string {
	candidates := make([]string, 0, len(s.members))
	for _, a := range s.otherAliveLocked() {
		if a != target {
			candidates = append(candidates, a)
		}
	}
	s.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}

// ackWithPiggyback builds the standard reply: an ack carrying the next
// piggyback batch.
func (s *Service) ackWithPiggyback() transport.Gossip {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport.Gossip{Kind: transport.GossipAck, From: s.cfg.Addr, Updates: s.takePiggybackLocked()}
}
