package overlay

import (
	"fmt"
	"math/rand/v2"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
)

// Store tracks which peers hold a replica of which content key. The paper
// replicates content "randomly with a certain factor" (§4) so that the
// unstructured search has numPeers/repl expected cost; replicas stay where
// they are when a peer goes offline (the peer will serve them again when it
// returns), which is why search cost rises under churn.
type Store struct {
	net     *netsim.Network
	holders map[keyspace.Key][]netsim.PeerID
	at      map[netsim.PeerID]map[keyspace.Key]bool
}

// NewStore returns an empty content store over the network.
func NewStore(net *netsim.Network) *Store {
	return &Store{
		net:     net,
		holders: make(map[keyspace.Key][]netsim.PeerID),
		at:      make(map[netsim.PeerID]map[keyspace.Key]bool),
	}
}

// ReplicateRandom places key at repl distinct uniformly random peers and
// returns them. Re-replicating an existing key replaces its placement.
func (s *Store) ReplicateRandom(key keyspace.Key, repl int, rng *rand.Rand) ([]netsim.PeerID, error) {
	n := s.net.Size()
	if repl < 1 || repl > n {
		return nil, fmt.Errorf("overlay: replication factor %d out of [1,%d]", repl, n)
	}
	for _, p := range s.holders[key] {
		delete(s.at[p], key)
	}
	chosen := make([]netsim.PeerID, 0, repl)
	seen := make(map[netsim.PeerID]bool, repl)
	for len(chosen) < repl {
		p := netsim.PeerID(rng.IntN(n))
		if seen[p] {
			continue
		}
		seen[p] = true
		chosen = append(chosen, p)
		if s.at[p] == nil {
			s.at[p] = make(map[keyspace.Key]bool)
		}
		s.at[p][key] = true
	}
	s.holders[key] = chosen
	return chosen, nil
}

// HasAt reports whether peer p holds a replica of key.
func (s *Store) HasAt(p netsim.PeerID, key keyspace.Key) bool {
	return s.at[p][key]
}

// OnlineHolderMatch returns a match function for searches: true at peers
// that hold key. Liveness is enforced by the search algorithms themselves
// (they never visit offline peers), so the predicate only checks holding.
func (s *Store) OnlineHolderMatch(key keyspace.Key) func(netsim.PeerID) bool {
	return func(p netsim.PeerID) bool { return s.at[p][key] }
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int { return len(s.holders) }
