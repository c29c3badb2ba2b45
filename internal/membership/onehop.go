package membership

import (
	"fmt"
	"sort"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// OneHop implements a simplified version of the hierarchical membership
// protocol of Gupta, Liskov and Rodrigues (NSDI'04) that the paper's
// evaluation runs on: "The protocol to manage memberships in OneHop can
// be thought of as a hierarchical gossip protocol (among slice leaders,
// unit leaders and unit members). We augment OneHop by piggybacking node
// liveness information onto the gossip messages" (§6.1).
//
// Structure: the identifier ring is cut into slices, each slice into
// units. Every node keepalive-probes its ring successor; a missed pong
// becomes a leave event and a fresh pong after downtime becomes a join
// event. Detected events flow detector → slice leader → all other slice
// leaders → unit leaders → unit members, each stage batched on its own
// period, with (Δt_alive, Δt_since) piggybacked throughout. Leaders are
// positional (the live node closest to its slice/unit midpoint according
// to the local cache), so leadership heals around churn.
type OneHop struct {
	net *netsim.Network
	cfg OneHopConfig

	caches []*Cache
	join   []sim.Time // session start per node (self-knowledge)
	up     []bool

	pending      []map[netsim.NodeID]oneHopEvent // events buffered at each node for its next batch
	awaiting     []map[uint64]sim.Timer          // outstanding ping timeouts per prober
	lastAnnounce []sim.Time                      // last liveness refresh each node issued for its successor

	stats OneHopStats
}

// refreshEvery is how often a live successor's (Δt_alive, 0) is
// re-announced through the hierarchy even without a membership change,
// so liveness ages keep flowing for stable nodes — the paper's
// "piggybacking node liveness information onto the gossip messages".
const refreshEvery = 30 * sim.Second

// OneHopConfig tunes the hierarchy and its timers.
type OneHopConfig struct {
	// Slices is the number of ring slices; Units the units per slice.
	Slices, Units int
	// KeepaliveEvery is the successor-probe period (event detection lag).
	KeepaliveEvery sim.Time
	// ExchangeEvery is the batching period at slice and unit leaders.
	ExchangeEvery sim.Time
	// PingTimeout declares a probed successor dead.
	PingTimeout sim.Time
}

// DefaultOneHopConfig mirrors the scale of the original system: for a
// 1024-node ring, 8 slices of 4 units each, one-second keepalives and
// five-second leader exchange batches.
func DefaultOneHopConfig() OneHopConfig {
	return OneHopConfig{
		Slices:         8,
		Units:          4,
		KeepaliveEvery: 5 * sim.Second,
		ExchangeEvery:  5 * sim.Second,
		PingTimeout:    2 * sim.Second,
	}
}

// OneHopStats counts protocol activity.
type OneHopStats struct {
	Pings          uint64
	EventsDetected uint64
	LeaderBatches  uint64
}

// oneHopEvent is one membership change with piggybacked liveness info.
type oneHopEvent struct {
	ID       netsim.NodeID
	Up       bool
	AliveFor sim.Time
	Since    sim.Time
}

// Wire message types.
type oneHopPing struct{ Seq uint64 }
type oneHopPong struct {
	Seq      uint64
	AliveFor sim.Time
}
type oneHopEventMsg struct {
	Events []oneHopEvent
	// Tier routes the batch: 0 detector→slice leader, 1 slice
	// leader→slice leader, 2 →unit leader, 3 →member.
	Tier int
}

const oneHopEventWire = 4 + 1 + 8 + 8

func (m oneHopEventMsg) wireSize() int { return 5 + len(m.Events)*oneHopEventWire }

// NewOneHop builds the protocol over the network. Call Attach per node,
// then Start.
func NewOneHop(net *netsim.Network, cfg OneHopConfig) (*OneHop, error) {
	if cfg.Slices < 1 || cfg.Units < 1 {
		return nil, fmt.Errorf("membership: onehop needs >=1 slice and unit, got %d/%d", cfg.Slices, cfg.Units)
	}
	if cfg.KeepaliveEvery <= 0 || cfg.ExchangeEvery <= 0 || cfg.PingTimeout <= 0 {
		return nil, fmt.Errorf("membership: onehop timers must be positive: %+v", cfg)
	}
	if cfg.Slices*cfg.Units > net.Size() {
		return nil, fmt.Errorf("membership: %d slices x %d units exceeds %d nodes", cfg.Slices, cfg.Units, net.Size())
	}
	n := net.Size()
	o := &OneHop{
		net:          net,
		cfg:          cfg,
		caches:       make([]*Cache, n),
		join:         make([]sim.Time, n),
		up:           make([]bool, n),
		pending:      make([]map[netsim.NodeID]oneHopEvent, n),
		awaiting:     make([]map[uint64]sim.Timer, n),
		lastAnnounce: make([]sim.Time, n),
	}
	now := net.Engine().Now()
	for i := 0; i < n; i++ {
		o.caches[i] = newCache(netsim.NodeID(i), net.Engine(), n)
		o.join[i] = now
		o.up[i] = net.IsUp(netsim.NodeID(i))
		o.pending[i] = make(map[netsim.NodeID]oneHopEvent)
		o.awaiting[i] = make(map[uint64]sim.Timer)
	}
	net.AddStateListener(func(id netsim.NodeID, up bool) {
		o.up[id] = up
		if up {
			o.join[id] = net.Engine().Now()
		} else {
			// All protocol soft state is lost with the node.
			o.pending[id] = make(map[netsim.NodeID]oneHopEvent)
			o.awaiting[id] = make(map[uint64]sim.Timer)
		}
	})
	return o, nil
}

// SeedFull pre-populates every cache with every node, as a bootstrap
// membership download would.
func (o *OneHop) SeedFull() {
	for i, c := range o.caches {
		for j := range o.caches {
			if i != j {
				c.HeardIndirectly(netsim.NodeID(j), 0, 0)
			}
		}
	}
}

// CacheOf returns a node's membership cache (its mix-choice Provider).
func (o *OneHop) CacheOf(id netsim.NodeID) *Cache { return o.caches[id] }

// Stats returns a snapshot of protocol counters.
func (o *OneHop) Stats() OneHopStats { return o.stats }

// Attach registers the protocol's message routes on a node's mux.
func (o *OneHop) Attach(id netsim.NodeID, mux *netsim.Mux) {
	mux.Route(oneHopPing{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		o.handlePing(id, from, m.Payload.(oneHopPing))
	}))
	mux.Route(oneHopPong{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		o.handlePong(id, from, m.Payload.(oneHopPong))
	}))
	mux.Route(oneHopEventMsg{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		o.handleEvents(id, from, m.Payload.(oneHopEventMsg))
	}))
}

// Start schedules every node's keepalive and batching loops.
func (o *OneHop) Start() {
	eng := o.net.Engine()
	for i := range o.caches {
		id := netsim.NodeID(i)
		koff := sim.Time(eng.RNG().Int63n(int64(o.cfg.KeepaliveEvery)))
		eng.Every(koff, o.cfg.KeepaliveEvery, func() { o.keepalive(id) })
		eoff := sim.Time(eng.RNG().Int63n(int64(o.cfg.ExchangeEvery)))
		eng.Every(eoff, o.cfg.ExchangeEvery, func() { o.flushBatch(id) })
	}
}

// --- ring / hierarchy geometry ---------------------------------------

// successor returns the next node on the identifier ring.
func (o *OneHop) successor(id netsim.NodeID) netsim.NodeID {
	return netsim.NodeID((int(id) + 1) % o.net.Size())
}

// sliceOf returns a node's slice index.
func (o *OneHop) sliceOf(id netsim.NodeID) int {
	per := (o.net.Size() + o.cfg.Slices - 1) / o.cfg.Slices
	return int(id) / per
}

// unitOf returns a node's (slice, unit) coordinates.
func (o *OneHop) unitOf(id netsim.NodeID) (int, int) {
	perSlice := (o.net.Size() + o.cfg.Slices - 1) / o.cfg.Slices
	s := int(id) / perSlice
	within := int(id) % perSlice
	perUnit := (perSlice + o.cfg.Units - 1) / o.cfg.Units
	return s, within / perUnit
}

// sliceRange returns [lo, hi) node IDs of a slice.
func (o *OneHop) sliceRange(s int) (int, int) {
	per := (o.net.Size() + o.cfg.Slices - 1) / o.cfg.Slices
	lo := s * per
	hi := lo + per
	if hi > o.net.Size() {
		hi = o.net.Size()
	}
	return lo, hi
}

// unitRange returns [lo, hi) node IDs of a unit within a slice.
func (o *OneHop) unitRange(s, u int) (int, int) {
	slo, shi := o.sliceRange(s)
	perUnit := (shi - slo + o.cfg.Units - 1) / o.cfg.Units
	lo := slo + u*perUnit
	hi := lo + perUnit
	if hi > shi {
		hi = shi
	}
	return lo, hi
}

// leaderIn returns the node believed alive (per the observer's cache: a
// known entry not marked down; the observer itself counts as alive)
// closest to the midpoint of [lo, hi), or Invalid if none. OneHop keeps
// a full membership list and removes only positively known departures,
// so "believed alive" means "not known dead".
func (o *OneHop) leaderIn(observer netsim.NodeID, lo, hi int) netsim.NodeID {
	if hi <= lo {
		return netsim.Invalid
	}
	mid := (lo + hi) / 2
	cache := o.caches[observer]
	best := netsim.Invalid
	bestDist := hi - lo + 1
	for i := lo; i < hi; i++ {
		id := netsim.NodeID(i)
		alive := id == observer
		if !alive {
			if info, ok := cache.Lookup(id); ok {
				alive = !info.Down
			}
		}
		if !alive {
			continue
		}
		dist := i - mid
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = id, dist
		}
	}
	return best
}

// sliceLeader returns the observer's view of slice s's leader.
func (o *OneHop) sliceLeader(observer netsim.NodeID, s int) netsim.NodeID {
	lo, hi := o.sliceRange(s)
	return o.leaderIn(observer, lo, hi)
}

// unitLeader returns the observer's view of unit (s, u)'s leader.
func (o *OneHop) unitLeader(observer netsim.NodeID, s, u int) netsim.NodeID {
	lo, hi := o.unitRange(s, u)
	return o.leaderIn(observer, lo, hi)
}

// --- keepalive / detection -------------------------------------------

func (o *OneHop) keepalive(id netsim.NodeID) {
	if !o.up[id] {
		return
	}
	succ := o.successor(id)
	seq := o.net.Engine().RNG().Uint64()
	o.stats.Pings++
	o.net.Send(id, succ, netsim.Message{Payload: oneHopPing{Seq: seq}, Size: 13})
	timer := o.net.Engine().After(o.cfg.PingTimeout, func() {
		delete(o.awaiting[id], seq)
		if !o.up[id] {
			return
		}
		// Successor did not answer: leave event, unless already known.
		if info, ok := o.caches[id].Lookup(succ); ok && info.Down {
			return
		}
		var aliveFor sim.Time
		if info, ok := o.caches[id].Lookup(succ); ok {
			aliveFor = info.AliveFor
		}
		o.caches[id].HeardDown(succ, aliveFor, 0)
		o.enqueue(id, oneHopEvent{ID: succ, Up: false, AliveFor: aliveFor, Since: 0})
		o.stats.EventsDetected++
	})
	o.awaiting[id][seq] = timer
}

func (o *OneHop) handlePing(id, from netsim.NodeID, ping oneHopPing) {
	if !o.up[id] {
		return
	}
	aliveFor := o.net.Engine().Now() - o.join[id]
	o.net.Send(id, from, netsim.Message{Payload: oneHopPong{Seq: ping.Seq, AliveFor: aliveFor}, Size: 21})
}

func (o *OneHop) handlePong(id, from netsim.NodeID, pong oneHopPong) {
	if !o.up[id] {
		return
	}
	timer, ok := o.awaiting[id][pong.Seq]
	if !ok {
		return
	}
	timer.Cancel()
	delete(o.awaiting[id], pong.Seq)
	// A pong after a known-down period is a join event; a pong from a
	// long-stable successor is periodically re-announced so its age
	// keeps flowing through the hierarchy.
	now := o.net.Engine().Now()
	prev, had := o.caches[id].Lookup(from)
	rejoined := had && (prev.Down || pong.AliveFor < prev.AliveFor)
	o.caches[id].HeardDirectly(from, pong.AliveFor)
	refresh := now-o.lastAnnounce[id] >= refreshEvery
	if !had || rejoined || refresh {
		o.enqueue(id, oneHopEvent{ID: from, Up: true, AliveFor: pong.AliveFor, Since: 0})
		o.lastAnnounce[id] = now
		o.stats.EventsDetected++
	}
}

// --- event dissemination ---------------------------------------------

func (o *OneHop) enqueue(id netsim.NodeID, ev oneHopEvent) {
	o.pending[id][ev.ID] = ev
}

// agedEvents drains a node's pending buffer, aging Δt_since to now.
func (o *OneHop) agedEvents(id netsim.NodeID) []oneHopEvent {
	buf := o.pending[id]
	if len(buf) == 0 {
		return nil
	}
	ids := make([]int, 0, len(buf))
	for nid := range buf {
		ids = append(ids, int(nid))
	}
	sort.Ints(ids)
	out := make([]oneHopEvent, 0, len(ids))
	for _, nid := range ids {
		out = append(out, buf[netsim.NodeID(nid)])
	}
	o.pending[id] = make(map[netsim.NodeID]oneHopEvent)
	return out
}

// flushBatch runs at every node each exchange period; only nodes with
// buffered events send, and the destination tier depends on the node's
// role in the hierarchy.
func (o *OneHop) flushBatch(id netsim.NodeID) {
	if !o.up[id] {
		return
	}
	events := o.agedEvents(id)
	if len(events) == 0 {
		return
	}
	s := o.sliceOf(id)
	myLeader := o.sliceLeader(id, s)
	if myLeader != id {
		// Ordinary detector: report to the slice leader.
		if myLeader != netsim.Invalid {
			o.sendEvents(id, myLeader, events, 1)
		}
		return
	}
	// Slice leader: exchange with the other slice leaders and push to
	// this slice's unit leaders.
	o.stats.LeaderBatches++
	for other := 0; other < o.cfg.Slices; other++ {
		if other == s {
			continue
		}
		if leader := o.sliceLeader(id, other); leader != netsim.Invalid {
			o.sendEvents(id, leader, events, 2)
		}
	}
	o.pushToUnits(id, s, events)
}

func (o *OneHop) pushToUnits(id netsim.NodeID, s int, events []oneHopEvent) {
	for u := 0; u < o.cfg.Units; u++ {
		if leader := o.unitLeader(id, s, u); leader != netsim.Invalid && leader != id {
			o.sendEvents(id, leader, events, 3)
		}
	}
	// The leader is also a unit member; apply locally happened already
	// at detection/receipt time.
}

func (o *OneHop) sendEvents(from, to netsim.NodeID, events []oneHopEvent, tier int) {
	msg := oneHopEventMsg{Events: events, Tier: tier}
	o.net.Send(from, to, netsim.Message{Payload: msg, Size: msg.wireSize()})
}

func (o *OneHop) handleEvents(id, from netsim.NodeID, msg oneHopEventMsg) {
	if !o.up[id] {
		return
	}
	cache := o.caches[id]
	for _, ev := range msg.Events {
		if ev.Up {
			cache.HeardIndirectly(ev.ID, ev.AliveFor, ev.Since)
		} else {
			cache.HeardDown(ev.ID, ev.AliveFor, ev.Since)
		}
	}
	switch msg.Tier {
	case 1:
		// Arrived at a slice leader from a detector: buffer for the next
		// inter-slice exchange.
		for _, ev := range msg.Events {
			o.enqueue(id, ev)
		}
	case 2:
		// Arrived from another slice leader: push down to unit leaders.
		s := o.sliceOf(id)
		o.pushToUnits(id, s, msg.Events)
	case 3:
		// Arrived at a unit leader: fan out to unit members.
		s, u := o.unitOf(id)
		lo, hi := o.unitRange(s, u)
		for i := lo; i < hi; i++ {
			member := netsim.NodeID(i)
			if member != id {
				o.sendEvents(id, member, msg.Events, 4)
			}
		}
	case 4:
		// Leaf delivery: cache update above is all.
	}
}
