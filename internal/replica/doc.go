// Package replica owns the replica-set machinery of the partial DHT: how
// many copies of an index entry exist, where they live, in what order reads
// fail over between them, and how the set is repaired when churn punches
// holes in it.
//
// Set is the ordered replica set of one key — the routing-designated
// primary first, then the backups in the deterministic keyspace ranking
// (keyspace.RankClosest over hashed peer addresses), so every node that
// agrees on the membership list agrees on the failover order with no extra
// protocol. Fanout runs write legs (insert, reset-on-hit refresh) against
// the whole set concurrently, each leg bounded by the caller's context.
// PlanRepair extends the handoff planner of internal/node: on a view
// change, the designated pusher re-replicates under-replicated entries to
// the members of the new set with their remaining TTL, and a node holding
// an orphaned copy — its entire former replica set gone — pushes it back
// into the current set rather than letting the index lose the key.
//
// The paper's replica subnetwork (§3.3.2) — gossip floods among a group's
// members over simulated peers — is the simulator's and lives in
// internal/sim/simcore; this package imports only keyspace.
package replica
