package membership

import (
	"fmt"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// GossipEntry is one node's liveness information as carried in a gossip
// message: (ID, Δt_alive, Δt_since), per §4.9's piggybacking scheme.
type GossipEntry struct {
	ID       netsim.NodeID
	AliveFor sim.Time
	Since    sim.Time
}

// gossipEntryWireSize is the serialized size of one entry: a 4-byte node
// id plus two 8-byte durations.
const gossipEntryWireSize = 4 + 8 + 8

// GossipMsg is the payload exchanged by the epidemic protocol. The first
// entry is always the sender's own record (Δt_since = 0).
type GossipMsg struct {
	Entries []GossipEntry
}

// WireSize returns the on-the-wire size of the message.
func (g GossipMsg) WireSize() int { return 4 + len(g.Entries)*gossipEntryWireSize }

// GossipConfig tunes the epidemic protocol.
type GossipConfig struct {
	// Interval between gossip rounds at each node.
	Interval sim.Time
	// Fanout is the number of targets contacted per round.
	Fanout int
	// MaxEntries bounds the number of cache entries piggybacked per
	// message (the sender's own entry does not count toward it).
	MaxEntries int
}

// DefaultGossipConfig returns moderate parameters: one round every 5
// seconds to 2 targets, 64 entries per message. With N=1024 that
// disseminates an event system-wide in O(log N) rounds (§4.8).
func DefaultGossipConfig() GossipConfig {
	return GossipConfig{Interval: 5 * sim.Second, Fanout: 2, MaxEntries: 64}
}

// Gossip runs the epidemic membership protocol across all nodes of a
// network. Each node gets a Cache (retrievable with CacheOf) that serves
// as its mix-choice Provider.
type Gossip struct {
	net    *netsim.Network
	cfg    GossipConfig
	caches []*Cache
	join   []sim.Time // current session start per node
	up     []bool

	shuffle []netsim.NodeID // scratch for round's entry shuffle
}

// NewGossip creates the per-node caches and subscribes to churn
// transitions. Call Attach for each node's Mux, then Start.
func NewGossip(net *netsim.Network, cfg GossipConfig) (*Gossip, error) {
	if cfg.Interval <= 0 || cfg.Fanout <= 0 || cfg.MaxEntries <= 0 {
		return nil, fmt.Errorf("membership: invalid gossip config %+v", cfg)
	}
	n := net.Size()
	g := &Gossip{
		net:    net,
		cfg:    cfg,
		caches: make([]*Cache, n),
		join:   make([]sim.Time, n),
		up:     make([]bool, n),
	}
	now := net.Engine().Now()
	for i := 0; i < n; i++ {
		g.caches[i] = newCache(netsim.NodeID(i), net.Engine(), n)
		g.join[i] = now
		g.up[i] = net.IsUp(netsim.NodeID(i))
	}
	net.AddStateListener(g.onTransition)
	return g, nil
}

// SeedFull pre-populates every cache with every other node, modelling
// the bootstrap membership download. Entries start with Δt_alive = 0.
func (g *Gossip) SeedFull() {
	for i, c := range g.caches {
		for j := range g.caches {
			if i == j {
				continue
			}
			c.HeardIndirectly(netsim.NodeID(j), 0, 0)
		}
	}
}

// CacheOf returns node id's membership cache (its mix-choice Provider).
func (g *Gossip) CacheOf(id netsim.NodeID) *Cache { return g.caches[id] }

// Attach registers the gossip message route on a node's Mux.
func (g *Gossip) Attach(id netsim.NodeID, mux *netsim.Mux) {
	mux.Route(GossipMsg{}, netsim.HandlerFunc(func(from netsim.NodeID, msg netsim.Message) {
		g.receive(id, from, msg.Payload.(GossipMsg))
	}))
}

// Start schedules the periodic gossip rounds for every node. Nodes skip
// rounds while down (the network would drop their sends anyway, but
// skipping keeps the event count honest).
func (g *Gossip) Start() {
	eng := g.net.Engine()
	for i := range g.caches {
		id := netsim.NodeID(i)
		// Desynchronize rounds across nodes.
		offset := sim.Time(eng.RNG().Int63n(int64(g.cfg.Interval)))
		eng.Every(offset, g.cfg.Interval, func() { g.round(id) })
	}
}

// AliveFor returns how long node id has been in its current session, or
// its last completed session length if down.
func (g *Gossip) AliveFor(id netsim.NodeID) sim.Time {
	return g.net.Engine().Now() - g.join[id]
}

func (g *Gossip) onTransition(id netsim.NodeID, up bool) {
	g.up[id] = up
	if up {
		// Fresh session: Δt_alive restarts (§4.9 "based on its last join").
		g.join[id] = g.net.Engine().Now()
	}
}

func (g *Gossip) round(id netsim.NodeID) {
	if !g.up[id] {
		return
	}
	// Targets are any known id (a cache never holds its own node), drawn
	// after the entries' shuffle: that order is part of the seed's stream.
	cache := g.caches[id]
	known := cache.ids
	if len(known) == 0 {
		return
	}
	entries := make([]GossipEntry, 1, 1+min(g.cfg.MaxEntries, len(known)))
	entries[0] = GossipEntry{ID: id, AliveFor: g.AliveFor(id), Since: 0}
	msg := GossipMsg{Entries: cache.appendGossipEntries(entries, &g.shuffle, g.cfg.MaxEntries)}
	m := netsim.Message{Payload: msg, Size: msg.WireSize()}
	rng := g.net.Engine().RNG()
	for f := 0; f < g.cfg.Fanout; f++ {
		g.net.Send(id, known[rng.Intn(len(known))], m)
	}
}

func (g *Gossip) receive(self, from netsim.NodeID, msg GossipMsg) {
	if !g.up[self] {
		return // state lost while down; transitions race with in-flight messages
	}
	cache := g.caches[self]
	for _, e := range msg.Entries {
		if e.ID == from {
			cache.HeardDirectly(e.ID, e.AliveFor)
		} else {
			cache.HeardIndirectly(e.ID, e.AliveFor, e.Since)
		}
	}
}
