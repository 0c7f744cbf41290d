package overlay

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"pdht/internal/keyspace"
	"pdht/internal/netsim"
)

// Store tracks which peers hold a replica of which content key, and the
// value each key resolves to. The paper replicates content "randomly with
// a certain factor" (§4) so that the unstructured search has numPeers/repl
// expected cost; replicas stay where they are when a peer goes offline
// (the peer will serve them again when it returns), which is why search
// cost rises under churn.
type Store struct {
	net     *netsim.Network
	content map[keyspace.Key]content
}

// content is one stored key: its value and its holders, sorted.
type content struct {
	value   uint64
	holders []netsim.PeerID
}

// NewStore returns an empty content store over the network.
func NewStore(net *netsim.Network) *Store {
	return &Store{net: net, content: make(map[keyspace.Key]content)}
}

// ReplicateRandom stores key with value at repl distinct uniformly random
// peers and returns them, sorted. Re-replicating an existing key replaces
// its value and placement.
func (s *Store) ReplicateRandom(key keyspace.Key, value uint64, repl int, rng *rand.Rand) ([]netsim.PeerID, error) {
	n := s.net.Size()
	if repl < 1 || repl > n {
		return nil, fmt.Errorf("overlay: replication factor %d out of [1,%d]", repl, n)
	}
	holders := make([]netsim.PeerID, 0, repl)
	for len(holders) < repl {
		p := netsim.PeerID(rng.IntN(n))
		if i, dup := slices.BinarySearch(holders, p); !dup {
			holders = slices.Insert(holders, i, p)
		}
	}
	s.content[key] = content{value: value, holders: holders}
	return holders, nil
}

// Value returns the value stored under key, 0 for a key never stored.
func (s *Store) Value(key keyspace.Key) uint64 { return s.content[key].value }

// HasAt reports whether peer p holds a replica of key.
func (s *Store) HasAt(p netsim.PeerID, key keyspace.Key) bool {
	_, ok := slices.BinarySearch(s.content[key].holders, p)
	return ok
}

// OnlineHolderMatch returns a match function for searches: true at peers
// that hold key. Liveness is enforced by the search algorithms themselves
// (they never visit offline peers), so the predicate only checks holding.
func (s *Store) OnlineHolderMatch(key keyspace.Key) func(netsim.PeerID) bool {
	holders := s.content[key].holders
	return func(p netsim.PeerID) bool {
		_, ok := slices.BinarySearch(holders, p)
		return ok
	}
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int { return len(s.content) }
