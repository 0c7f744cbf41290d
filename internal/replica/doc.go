// Package replica is what the live node does with a key's replica set once
// it has one: PlanRepair extends the handoff planner of internal/node — on
// a view change, the designated pusher re-replicates under-replicated
// entries to the members of the new set with their remaining TTL, and a
// node holding an orphaned copy, its entire former replica set gone, pushes
// it back into the current set rather than letting the index lose the key.
//
// Fanout, a goroutine per write leg, is no longer how the node fans out:
// its engine writes every leg from the calling goroutine and collects the
// replies under one deadline. Fanout is kept for the load benchmark, which
// prices it as the replica.fanout3_us row.
//
// The set itself is not this package's: which peers hold a key, and in what
// order reads fail over between them, is the clockwise walk of the member
// ring (keyspace.MemberRing.Group), which PlanRepair reads through View.
// Every node that agrees on the membership list agrees on that order with
// no extra protocol.
//
// The paper's replica subnetwork (§3.3.2) — gossip floods among a group's
// members over simulated peers — is the simulator's and lives in
// internal/sim/simcore; this package imports only keyspace.
package replica
