// Package netsim simulates the P2P network's message plane: point-to-
// point delivery over the topology latency matrix, per-node up/down
// state driven by churn, and byte-accurate bandwidth accounting.
//
// The failure model follows the paper's evaluation: a message is placed
// on the wire only if the sender is up (its bytes then count toward
// bandwidth, since they traverse the link even if the destination is
// gone), and it is delivered only if the destination is up when it
// arrives. A node that goes down loses its protocol state; handlers
// observe churn transitions to model that.
package netsim

import (
	"fmt"

	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// NodeID identifies a node; IDs are dense in [0, N).
type NodeID int

// Invalid is a sentinel NodeID meaning "no node".
const Invalid NodeID = -1

// Message is what travels between nodes. Payload is an arbitrary
// protocol-defined value; Size is the number of bytes the message
// occupies on the wire and is what bandwidth accounting uses. Trace is
// the data-plane correlation tag: zero for background traffic, set by
// the protocol layers on tagged data-plane messages so wire events can
// be joined into per-stream timelines (it is trace metadata only and
// must never influence protocol behavior).
//
// A message is delivered at most once — the network never duplicates —
// and nothing but the receiving handler keeps Payload: tracers look and
// let go. A protocol may therefore send a pointer to a pooled value,
// or bytes in a pooled buffer, and the handler recycles them when it
// is done (internal/onion's packet goes back to its pool as soon as it
// is read; the payload buffer it carries goes back to internal/bufpool
// once the last hop or the application is done with it). A message the
// network does not deliver — its sender down, lost, consumed by a
// fault, or its receiver down — is the network's last: a payload that
// is a Recycler is recycled, once, when the drop is traced, and any
// other is left to the collector. Anything that delivers a message
// twice (a replay fault) must clone the payload, and what it points to,
// first.
type Message struct {
	Payload any
	Size    int
	Trace   obs.Tag
}

// Recycler is a pooled payload: Recycle gives it, and what it carries,
// back to its pool when the network drops the message it rides in.
type Recycler interface {
	Recycle()
}

// recycle is the end of a message the network drops.
func recycle(msg Message) {
	if r, ok := msg.Payload.(Recycler); ok {
		r.Recycle()
	}
}

// Handler receives messages delivered to a node. It owns msg.Payload
// from then on; the network holds no reference to a delivered message.
type Handler interface {
	HandleMessage(from NodeID, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from NodeID, msg Message) { f(from, msg) }

// StateListener observes node up/down transitions (join/leave churn).
type StateListener func(id NodeID, up bool)

// Stats aggregates network-wide counters.
type Stats struct {
	Sent            uint64 // messages placed on the wire
	Delivered       uint64 // messages handed to a handler
	DroppedSender   uint64 // sends suppressed because the sender was down
	DroppedReceiver uint64 // arrivals dropped because the receiver was down
	DroppedLoss     uint64 // messages lost to random link loss
	DroppedFault    uint64 // messages consumed by injected faults (partition / targeted drop)
	Bytes           uint64 // total bytes placed on the wire (per-link)
}

// netMetrics holds the network's registry instruments, resolved once
// at bind time so the send path updates them without map lookups. The
// per-reason drop counters are incremented at exactly the trace emit
// sites, which is what lets a run report's drop breakdown reconcile
// byte-for-byte with its JSONL trace.
type netMetrics struct {
	sent, delivered, bytes                                     *obs.Counter
	dropSender, dropReceiver, dropHandler, dropLoss, dropFault *obs.Counter
	upNodes                                                    *obs.Gauge
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	return &netMetrics{
		sent:         reg.Counter("net.sent"),
		delivered:    reg.Counter("net.delivered"),
		bytes:        reg.Counter("net.bytes"),
		dropSender:   reg.Counter("net.dropped." + obs.ReasonSenderDown.String()),
		dropReceiver: reg.Counter("net.dropped." + obs.ReasonReceiverDown.String()),
		dropHandler:  reg.Counter("net.dropped." + obs.ReasonNoHandler.String()),
		dropLoss:     reg.Counter("net.dropped." + obs.ReasonLinkLoss.String()),
		dropFault:    reg.Counter("net.dropped.fault"),
		upNodes:      reg.Gauge("net.up_nodes"),
	}
}

// Network is the simulated message plane. It must only be used from the
// simulation goroutine that drives its Engine.
type Network struct {
	eng       *sim.Engine
	lat       *topology.Matrix
	up        []bool
	nUp       int
	handlers  []Handler
	listeners []StateListener
	own       [][]StateListener // per node, see AddNodeListener
	lossRate  float64
	fault     *faultState
	stats     Stats
	tracer    obs.Tracer
	m         *netMetrics

	// flights holds the messages on the wire; each is the argument of
	// one queued deliver event.
	flights sim.Slab[flight]
	deliver sim.Func
}

// flight is a message in transit.
type flight struct {
	from, to NodeID
	msg      Message
}

// New creates a network over the given latency matrix. All nodes start
// up and have no handler.
func New(eng *sim.Engine, lat *topology.Matrix) *Network {
	n := lat.N()
	up := make([]bool, n)
	for i := range up {
		up[i] = true
	}
	nw := &Network{
		eng:      eng,
		lat:      lat,
		up:       up,
		nUp:      n,
		handlers: make([]Handler, n),
		own:      make([][]StateListener, n),
	}
	nw.deliver = eng.Register(nw.arrive)
	return nw
}

// SetTracer installs (or removes, with nil) the network's trace sink.
func (n *Network) SetTracer(t obs.Tracer) { n.tracer = t }

// Tracer returns the installed trace sink, nil when tracing is off.
// Protocol layers use it to emit above-the-wire events (e.g.
// RelayDropped) into the same stream as the network's own events.
func (n *Network) Tracer() obs.Tracer { return n.tracer }

// msgEvent builds a message-plane trace event, filling the correlation
// fields (ID, Seq, Slot, Hop) from the message's tag; untagged traffic
// gets the -1 sentinels.
func msgEvent(typ obs.Type, at int64, node, peer int, msg Message, reason obs.Reason) obs.Event {
	e := obs.Event{
		Type: typ, At: at, Node: node, Peer: peer,
		Slot: -1, Hop: -1, Size: msg.Size, Reason: reason,
	}
	if tg := msg.Trace; tg.ID != 0 {
		e.ID = tg.ID
		e.Seq = int64(tg.Seg)
		e.Slot = int(tg.Slot)
		e.Hop = int(tg.Hop)
	}
	return e
}

// BindMetrics resolves the network's counters and gauges in the given
// registry. Passing nil unbinds.
func (n *Network) BindMetrics(reg *obs.Registry) {
	if reg == nil {
		n.m = nil
		return
	}
	n.m = newNetMetrics(reg)
	n.m.upNodes.Set(float64(n.nUp))
}

// Engine returns the driving simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.up) }

// Latency returns the one-way latency between two nodes.
func (n *Network) Latency(from, to NodeID) sim.Time {
	return n.lat.OneWay(int(from), int(to))
}

// SetHandler installs the message handler for a node.
func (n *Network) SetHandler(id NodeID, h Handler) {
	n.handlers[n.check(id)] = h
}

// AddStateListener registers a callback invoked on every up/down
// transition, after the state change is applied.
func (n *Network) AddStateListener(l StateListener) {
	n.listeners = append(n.listeners, l)
}

// AddNodeListener registers a callback invoked on node id's transitions
// only, after every AddStateListener callback has run. State that lives
// and dies with one node (a relay's table, a responder's streams)
// listens here, so a transition costs that node's listeners, not one
// call per node in the network.
func (n *Network) AddNodeListener(id NodeID, l StateListener) {
	i := n.check(id)
	n.own[i] = append(n.own[i], l)
}

// SetLossRate makes every message independently vanish in flight with
// probability p — random link loss on top of churn. The paper's failure
// model is node churn only; loss extends the evaluation (erasure-coded
// multipath masks random loss exactly as it masks path failures).
func (n *Network) SetLossRate(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netsim: loss rate %g outside [0,1]", p))
	}
	n.lossRate = p
}

// IsUp reports whether the node is currently up.
func (n *Network) IsUp(id NodeID) bool { return n.up[n.check(id)] }

// UpCount returns the number of nodes currently up.
func (n *Network) UpCount() int { return n.nUp }

// SetUp transitions a node's liveness state. Transitions to the current
// state are no-ops (listeners are not re-notified).
func (n *Network) SetUp(id NodeID, up bool) {
	i := n.check(id)
	if n.up[i] == up {
		return
	}
	n.up[i] = up
	if up {
		n.nUp++
	} else {
		n.nUp--
	}
	if n.m != nil {
		n.m.upNodes.Set(float64(n.nUp))
	}
	if n.tracer != nil {
		typ := obs.NodeDown
		if up {
			typ = obs.NodeUp
		}
		n.tracer.Emit(obs.Event{Type: typ, At: int64(n.eng.Now()), Node: i, Peer: -1, Slot: -1, Hop: -1})
	}
	for _, l := range n.listeners {
		l(id, up)
	}
	for _, l := range n.own[i] {
		l(id, up)
	}
}

// Send places a message on the wire from one node to another. If the
// sender is down nothing is sent. The message's bytes are charged to
// bandwidth as soon as they are on the wire; delivery occurs one one-way
// latency later and succeeds only if the destination is up at that time.
// It reports whether the message was actually transmitted.
func (n *Network) Send(from, to NodeID, msg Message) bool {
	fi, ti := n.check(from), n.check(to)
	if msg.Size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", msg.Size))
	}
	if !n.up[fi] {
		n.stats.DroppedSender++
		if n.m != nil {
			n.m.dropSender.Inc()
		}
		if n.tracer != nil {
			n.tracer.Emit(msgEvent(obs.MsgDropped, int64(n.eng.Now()), fi, ti, msg, obs.ReasonSenderDown))
		}
		recycle(msg)
		return false
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(msg.Size)
	if n.m != nil {
		n.m.sent.Inc()
		n.m.bytes.Add(uint64(msg.Size))
	}
	if n.tracer != nil {
		n.tracer.Emit(msgEvent(obs.MsgSent, int64(n.eng.Now()), fi, ti, msg, obs.ReasonNone))
	}
	if n.lossRate > 0 && n.eng.RNG().Float64() < n.lossRate {
		n.stats.DroppedLoss++
		if n.m != nil {
			n.m.dropLoss.Inc()
		}
		if n.tracer != nil {
			n.tracer.Emit(msgEvent(obs.MsgDropped, int64(n.eng.Now()), fi, ti, msg, obs.ReasonLinkLoss))
		}
		recycle(msg)
		return true // bytes entered the wire; the message just never arrives
	}
	lat, dropped := n.faultDrop(fi, ti, msg)
	if dropped {
		recycle(msg)
		return true // on the wire, but an injected fault consumed it
	}
	n.eng.ScheduleTyped(lat, n.deliver, uint64(n.flights.Put(flight{from, to, msg})))
	return true
}

// arrive is the deliver event: the message in flight slot reaches its
// destination. The slot is free before the handler runs, so a handler
// that sends reuses it.
func (n *Network) arrive(slot uint64) {
	f := n.flights.Take(uint32(slot))
	fi, ti, msg := int(f.from), int(f.to), f.msg
	if !n.up[ti] {
		n.stats.DroppedReceiver++
		if n.m != nil {
			n.m.dropReceiver.Inc()
		}
		if n.tracer != nil {
			n.tracer.Emit(msgEvent(obs.MsgDropped, int64(n.eng.Now()), fi, ti, msg, obs.ReasonReceiverDown))
		}
		recycle(msg)
		return
	}
	h := n.handlers[ti]
	if h == nil {
		n.stats.DroppedReceiver++
		if n.m != nil {
			n.m.dropHandler.Inc()
		}
		if n.tracer != nil {
			n.tracer.Emit(msgEvent(obs.MsgDropped, int64(n.eng.Now()), fi, ti, msg, obs.ReasonNoHandler))
		}
		recycle(msg)
		return
	}
	n.stats.Delivered++
	if n.m != nil {
		n.m.delivered.Inc()
	}
	if n.tracer != nil {
		n.tracer.Emit(msgEvent(obs.MsgDelivered, int64(n.eng.Now()), ti, fi, msg, obs.ReasonNone))
	}
	h.HandleMessage(f.from, msg)
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

func (n *Network) check(id NodeID) int {
	if id < 0 || int(id) >= len(n.up) {
		panic(fmt.Sprintf("netsim: node id %d out of range [0, %d)", id, len(n.up)))
	}
	return int(id)
}
