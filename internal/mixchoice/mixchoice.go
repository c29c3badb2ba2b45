// Package mixchoice selects relay nodes ("mixes") for anonymous paths.
// It implements the two strategies compared throughout the paper's
// evaluation (§4.9, §6):
//
//   - Random: the baseline used by existing mix-based protocols — relays
//     drawn uniformly from the membership cache with no liveness
//     filtering (nodes that have died but remain cached can be picked;
//     that is precisely the fragility the paper attacks).
//   - Biased: relays ranked by the node liveness predictor q, ties
//     broken by observed lifetime Δt_alive (under a heavy-tailed
//     lifetime distribution, older is safer).
//
// Both strategies produce k node-disjoint paths of L relays each; the
// biased strategy assigns the best-ranked relays to the first path, the
// next best to the second, and so on — which is what makes "the top k/r
// paths very stable" in Figure 5(b).
package mixchoice

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"resilientmix/internal/membership"
	"resilientmix/internal/netsim"
)

// Strategy selects how relays are chosen.
type Strategy int

// Available strategies.
const (
	Random Strategy = iota
	Biased
)

// String returns the strategy name as used in the paper's tables.
func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case Biased:
		return "biased"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// pools holds the candidate pools SelectPaths shuffles and ranks in. A
// pool is as long as the membership view — a paper-scale world's is
// 1 023 candidates, 24 KB — and lives for one call, so the calls share
// them. Simulated worlds run on parallel goroutines and livenet
// sessions on their own, hence a sync.Pool.
var pools = sync.Pool{New: func() any { return new([]membership.Candidate) }}

// SelectPaths picks k node-disjoint paths of l relays each from the
// candidate set, excluding the given nodes (normally the initiator and
// the responder). The rng is used for the random strategy and for
// tie-shuffling; candidates are not modified.
func SelectPaths(rng *rand.Rand, strategy Strategy, cands []membership.Candidate, k, l int, exclude ...netsim.NodeID) ([][]netsim.NodeID, error) {
	relays, err := AppendPaths(nil, rng, strategy, cands, k, l, exclude)
	if err != nil {
		return nil, err
	}
	paths := make([][]netsim.NodeID, k)
	for p := range paths {
		paths[p] = relays[p*l : (p+1)*l : (p+1)*l]
	}
	return paths, nil
}

// AppendPaths is SelectPaths into the caller's storage: the k paths'
// relays are appended to dst, path after path, l each — the same picks
// from the same draws.
func AppendPaths(dst []netsim.NodeID, rng *rand.Rand, strategy Strategy, cands []membership.Candidate, k, l int, exclude []netsim.NodeID) ([]netsim.NodeID, error) {
	if k < 1 || l < 1 {
		return nil, fmt.Errorf("mixchoice: need k >= 1 and l >= 1, got k=%d l=%d", k, l)
	}
	pp := pools.Get().(*[]membership.Candidate)
	defer pools.Put(pp)
	pool := (*pp)[:0]
	for _, c := range cands {
		// A scan: exclude is the two endpoints and the relays of the
		// other paths, a few dozen at most.
		if !slices.Contains(exclude, c.ID) {
			pool = append(pool, c)
		}
	}
	*pp = pool
	need := k * l
	if len(pool) < need {
		return nil, fmt.Errorf("mixchoice: need %d distinct relays, only %d candidates", need, len(pool))
	}

	switch strategy {
	case Random:
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	case Biased:
		// Shuffle first so that ties (equal q and Δt_alive) break randomly
		// rather than by candidate order.
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		rankTop(pool, need)
	default:
		return nil, fmt.Errorf("mixchoice: unknown strategy %d", strategy)
	}

	dst = slices.Grow(dst, need)
	for _, c := range pool[:need] {
		dst = append(dst, c.ID)
	}
	return dst, nil
}

// better is the biased ranking: higher q first, ties broken by longer
// observed lifetime.
func better(a, b membership.Candidate) bool {
	if a.Q != b.Q {
		return a.Q > b.Q
	}
	return a.AliveFor > b.AliveFor
}

// rankTop leaves the need best candidates, best first, in pool[:need] —
// what a stable sort of the whole pool by better would put there, equal
// candidates keeping their order — in one pass: each candidate is
// inserted into the sorted prefix behind everything it does not beat,
// and the prefix's last falls out once it is full. The rest of pool is
// left in no particular state. A path set needs 3–12 relays of ~1000
// candidates, so nearly every candidate costs the one comparison that
// rejects it.
func rankTop(pool []membership.Candidate, need int) {
	for i, c := range pool {
		j := i
		if j >= need {
			j = need - 1
			if !better(c, pool[j]) {
				continue
			}
		}
		for ; j > 0 && better(c, pool[j-1]); j-- {
			pool[j] = pool[j-1]
		}
		pool[j] = c
	}
}
