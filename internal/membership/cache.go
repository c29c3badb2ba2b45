// Package membership manages each node's view of the rest of the
// network: the node cache with the paper's exact liveness merge rules
// (§4.9 "Learning Node Liveness Information"), the epidemic/gossip
// dissemination protocol (§4.8), and an oracle provider matching the
// "accurate and complete membership information" that the paper's
// augmented OneHop layer supplies (§6.1; DESIGN.md substitution 1).
package membership

import (
	"slices"

	"resilientmix/internal/netsim"
	"resilientmix/internal/predictor"
	"resilientmix/internal/sim"
)

// Candidate is a node as seen by mix choice: its identity, its liveness
// predictor value q at query time, and the underlying Δt_alive used to
// break ties between equally fresh candidates (bigger is better under a
// heavy-tailed lifetime distribution).
type Candidate struct {
	ID       netsim.NodeID
	Q        float64
	AliveFor sim.Time
}

// Provider exposes the candidate set a node draws relay nodes from.
type Provider interface {
	// AppendCandidates appends every known node except self to dst, in
	// unspecified order, so a caller that reads the set and lets it go
	// can reuse one buffer.
	AppendCandidates(dst []Candidate, self netsim.NodeID) []Candidate
}

// QProvider is optionally implemented by providers that can report a
// single node's liveness predictor without materializing the whole
// candidate set (used by failure prediction and weighted allocation).
type QProvider interface {
	Q(id netsim.NodeID) float64
}

// Cache is one node's membership cache: for every known node it stores
// the liveness triple (Δt_alive, Δt_since, t_last) and applies the
// paper's direct/indirect merge rules. Node ids are dense, so entries
// are indexed by id, and every walk comes out in id order unsorted.
type Cache struct {
	self  netsim.NodeID
	eng   *sim.Engine
	slots []slot          // by node id, grown on demand
	ids   []netsim.NodeID // the known ids, ascending
}

// slot is one node id's entry; known is false until the node is heard of.
type slot struct {
	info  predictor.Info
	known bool
}

// newCache creates an empty cache for the given node, sized for the node
// ids [0, n); a larger id grows it.
func newCache(self netsim.NodeID, eng *sim.Engine, n int) *Cache {
	return &Cache{self: self, eng: eng, slots: make([]slot, n), ids: make([]netsim.NodeID, 0, max(n-1, 0))}
}

// set stores id's entry, adding id to the known ids if it is new.
func (c *Cache) set(id netsim.NodeID, info predictor.Info) {
	if i := int(id); i >= len(c.slots) {
		c.slots = append(c.slots, make([]slot, i+1-len(c.slots))...)
	}
	s := &c.slots[id]
	if !s.known {
		s.known = true
		if n := len(c.ids); n == 0 || c.ids[n-1] < id {
			c.ids = append(c.ids, id)
		} else {
			at, _ := slices.BinarySearch(c.ids, id)
			c.ids = slices.Insert(c.ids, at, id)
		}
	}
	s.info = info
}

// Len returns the number of cached nodes.
func (c *Cache) Len() int { return len(c.ids) }

// Lookup returns the stored liveness info for id.
func (c *Cache) Lookup(id netsim.NodeID) (predictor.Info, bool) {
	if id < 0 || int(id) >= len(c.slots) {
		return predictor.Info{}, false
	}
	s := c.slots[id]
	return s.info, s.known
}

// HeardDirectly applies the first merge rule of §4.9: we received a
// packet from the node itself, carrying its self-reported Δt_alive.
// The entry's Δt_since resets to zero and t_last becomes now.
func (c *Cache) HeardDirectly(id netsim.NodeID, aliveFor sim.Time) {
	if id == c.self {
		return
	}
	c.set(id, predictor.Info{
		AliveFor:  aliveFor,
		Since:     0,
		LastHeard: c.eng.Now(),
	})
}

// HeardIndirectly applies the second merge rule of §4.9: node A told us
// about node B with the supplied (Δt_alive, Δt_since). The gossiped
// values replace ours only if the received Δt_since is smaller (fresher)
// or B is unknown.
func (c *Cache) HeardIndirectly(id netsim.NodeID, aliveFor, since sim.Time) {
	if id == c.self {
		return
	}
	now := c.eng.Now()
	cur, ok := c.Lookup(id)
	if ok {
		// Compare freshness as of now: our stored since ages with the
		// local clock (Equation 3's t_now - t_last term).
		if since >= predictor.EffectiveSince(cur, now) {
			return // ours is at least as fresh
		}
	}
	c.set(id, predictor.Info{AliveFor: aliveFor, Since: since, LastHeard: now})
}

// HeardDown records an explicit leave event (OneHop-style membership
// disseminates departures; plain gossip does not). The same freshness
// rule applies: a stale death report must not override fresher liveness
// information.
func (c *Cache) HeardDown(id netsim.NodeID, aliveFor, since sim.Time) {
	if id == c.self {
		return
	}
	now := c.eng.Now()
	if cur, ok := c.Lookup(id); ok {
		if since >= predictor.EffectiveSince(cur, now) {
			return
		}
	}
	c.set(id, predictor.Info{AliveFor: aliveFor, Since: since, LastHeard: now, Down: true})
}

// Q returns the liveness predictor for a cached node at the current
// time, or 0 if the node is unknown.
func (c *Cache) Q(id netsim.NodeID) float64 {
	info, ok := c.Lookup(id)
	if !ok {
		return 0
	}
	return predictor.Q(info, c.eng.Now())
}

// AppendCandidates implements Provider: all cached nodes with their q
// values, in id order. Callers that need a shuffle do it themselves
// with the engine's RNG.
func (c *Cache) AppendCandidates(out []Candidate, self netsim.NodeID) []Candidate {
	now := c.eng.Now()
	for _, id := range c.ids {
		if id == self {
			continue
		}
		info := c.slots[id].info
		out = append(out, Candidate{ID: id, Q: predictor.Q(info, now), AliveFor: info.AliveFor})
	}
	return out
}

// appendGossipEntries appends up to max entries to piggyback on a gossip
// message to dst, with Δt_since aged to the present per §4.9. Entries
// are chosen uniformly at random using the engine's RNG: when the cache
// holds more than max ids they are shuffled in *scratch, which is grown
// as needed and left for the next call.
func (c *Cache) appendGossipEntries(dst []GossipEntry, scratch *[]netsim.NodeID, max int) []GossipEntry {
	ids := c.ids
	if len(ids) > max {
		// The whole list is shuffled, not just max picks drawn: the
		// shuffle's draws are part of the seed's random stream.
		ids = append((*scratch)[:0], ids...)
		*scratch = ids
		c.eng.RNG().Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:max]
	}
	now := c.eng.Now()
	for _, id := range ids {
		info := c.slots[id].info
		dst = append(dst, GossipEntry{
			ID:       id,
			AliveFor: info.AliveFor,
			Since:    predictor.EffectiveSince(info, now),
		})
	}
	return dst
}
