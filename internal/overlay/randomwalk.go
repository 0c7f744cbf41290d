package overlay

import (
	"math/rand/v2"

	"pdht/internal/netsim"
	"pdht/internal/stats"
)

// WalkResult reports the outcome and cost of a multi-walker search.
type WalkResult struct {
	// Found reports whether any walker hit a matching peer.
	Found bool
	// FoundAt is the matching peer; only meaningful when Found.
	FoundAt netsim.PeerID
	// Messages is the number of walker steps taken (one message each).
	Messages int
	// Visited is the number of peer visits, counting revisits.
	Visited int
}

// RandomWalks searches the overlay with the [LvCa02] strategy the paper's
// cost model assumes: `walkers` concurrent random walks from origin, each
// stepping to a uniformly random online neighbor, checking every visited
// peer against match. Walkers advance in lockstep and all stop as soon as
// one finds a match — the idealization of the paper's "checking back with
// the requester". Each step is one message of the given class.
//
// A walker with no online neighbor dies. The search gives up when all
// walkers are dead or each has taken maxSteps steps.
func (g *Graph) RandomWalks(origin netsim.PeerID, walkers, maxSteps int, match func(netsim.PeerID) bool, rng *rand.Rand, class stats.MsgClass) WalkResult {
	res := WalkResult{}
	defer func() { g.net.Send(class, int64(res.Messages)) }()
	if !g.net.Online(origin) || walkers < 1 || maxSteps < 1 {
		return res
	}
	res.Visited = 1
	if match(origin) {
		res.Found, res.FoundAt = true, origin
		return res
	}
	at := make([]netsim.PeerID, 0, walkers)
	prev := make([]netsim.PeerID, 0, walkers)
	for i := 0; i < walkers; i++ {
		at = append(at, origin)
		prev = append(prev, -1)
	}
	for step := 0; step < maxSteps && len(at) > 0; step++ {
		alive := at[:0]
		alivePrev := prev[:0]
		for i := range at {
			next, ok := g.onlineNeighbor(at[i], prev[i], rng)
			if !ok {
				// Allow doubling back before giving up: a
				// degree-1 peer's only exit is where it came
				// from.
				next, ok = g.onlineNeighbor(at[i], -1, rng)
			}
			if !ok {
				continue // walker dies
			}
			res.Messages++
			res.Visited++
			if match(next) {
				res.Found, res.FoundAt = true, next
				return res
			}
			alivePrev = append(alivePrev, at[i])
			alive = append(alive, next)
		}
		at, prev = alive, alivePrev
	}
	return res
}

// SearchConfig tunes the unstructured search that stands in for cSUnstr.
type SearchConfig struct {
	// Walkers is the number of concurrent random walks (k in [LvCa02]).
	Walkers int
	// MaxSteps bounds each walker's length. Zero means "enough to cover
	// the expected numPeers/repl visits with a 4× safety margin".
	MaxSteps int
	// FloodTTL bounds the fallback flood used when the walks fail; the
	// paper assumes the unstructured search always finds existing data,
	// so exhausted walks fall back to flooding. Zero disables fallback.
	FloodTTL int
}

// Search runs the paper's unstructured search: k random walks, falling back
// to a flood if they fail. It reports whether a matching peer was found and
// leaves the message counts on the network's counters (class
// stats.MsgBroadcast).
func (g *Graph) Search(origin netsim.PeerID, cfg SearchConfig, expectedCopies int, match func(netsim.PeerID) bool, rng *rand.Rand) (found bool, messages int) {
	walkers := cfg.Walkers
	if walkers < 1 {
		walkers = 16
	}
	maxSteps := cfg.MaxSteps
	if maxSteps < 1 {
		// Expected visits to hit one of expectedCopies random holders
		// is about n/expectedCopies; spread across walkers with 4×
		// margin.
		n := len(g.members)
		if expectedCopies < 1 {
			expectedCopies = 1
		}
		maxSteps = 4*n/(expectedCopies*walkers) + 1
	}
	wr := g.RandomWalks(origin, walkers, maxSteps, match, rng, stats.MsgBroadcast)
	if wr.Found {
		return true, wr.Messages
	}
	if cfg.FloodTTL > 0 {
		fr := g.Flood(origin, cfg.FloodTTL, match, stats.MsgBroadcast)
		return fr.Found, wr.Messages + fr.Messages
	}
	return false, wr.Messages
}
