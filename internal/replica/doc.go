// Package replica holds Fanout, a goroutine per write leg, which is no
// longer how the node fans out: its engine writes every leg from the
// calling goroutine and collects the replies under one deadline. Fanout is
// kept for the load benchmark, which prices it as the replica.fanout3_us
// row; nothing else imports this package.
//
// What the live node does with a key's replica set lives in internal/node:
// the set is the clockwise walk of the member ring (view.Replicas over
// keyspace.MemberRing.Group), and the repair planner that re-replicates
// entries on a view change is in its handoff.go.
//
// The paper's replica subnetwork (§3.3.2) — gossip floods among a group's
// members over simulated peers — is the simulator's and lives in
// internal/sim/simcore.
package replica
