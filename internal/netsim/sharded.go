package netsim

import (
	"fmt"

	"resilientmix/internal/obs"
	"resilientmix/internal/sim/shard"
	"resilientmix/internal/topology"
)

// ShardedHandler receives messages on a sharded network. Unlike
// Handler it is also handed the destination node's Proc, because all
// follow-up scheduling and randomness must flow through the node's own
// shard-local handle.
type ShardedHandler func(p *shard.Proc, from NodeID, msg Message)

// shardCounters is one shard's slice of the network counters, padded
// to a cache line so adjacent shards never false-share.
type shardCounters struct {
	stats Stats
	nUp   int
	_     [8]byte
}

// ShardedNetwork is the message plane for a sharded cluster: the same
// failure model as Network (send requires the sender up, bytes charged
// on the wire, delivery requires the receiver up on arrival, optional
// random link loss), re-partitioned so every piece of mutable state is
// touched only by the shard that owns the corresponding node:
//
//   - up[i] and handler delivery for node i run on i's shard (delivery
//     is a ScheduleNode event executing there);
//   - loss coin flips come from the sender's per-node RNG stream, so
//     the draw sequence is shard-count-invariant;
//   - counters are per-shard and summed on read.
//
// Handlers and configuration must be installed at setup time, before
// Cluster.Run.
type ShardedNetwork struct {
	cluster  *shard.Cluster
	lat      topology.Latency
	up       []bool // up[i] touched only by node i's shard
	handlers []ShardedHandler
	lossRate float64
	counters []shardCounters
}

// NewSharded creates a sharded network over the latency model. All
// nodes start up with no handler.
func NewSharded(c *shard.Cluster, lat topology.Latency) (*ShardedNetwork, error) {
	if lat.N() != c.Nodes() {
		return nil, fmt.Errorf("netsim: topology has %d nodes, cluster has %d", lat.N(), c.Nodes())
	}
	n := &ShardedNetwork{
		cluster:  c,
		lat:      lat,
		up:       make([]bool, c.Nodes()),
		handlers: make([]ShardedHandler, c.Nodes()),
		counters: make([]shardCounters, c.Shards()),
	}
	for i := range n.up {
		n.up[i] = true
	}
	for i := 0; i < c.Nodes(); i++ {
		n.counters[c.ShardOf(i)].nUp++
	}
	return n, nil
}

// Cluster returns the driving cluster.
func (n *ShardedNetwork) Cluster() *shard.Cluster { return n.cluster }

// Size returns the number of nodes.
func (n *ShardedNetwork) Size() int { return len(n.up) }

// Latency returns the one-way latency between two nodes.
func (n *ShardedNetwork) Latency(from, to NodeID) shard.Time {
	return n.lat.OneWay(int(from), int(to))
}

// SetHandler installs the message handler for a node. Setup time only.
func (n *ShardedNetwork) SetHandler(id NodeID, h ShardedHandler) {
	n.handlers[n.checkSharded(id)] = h
}

// SetLossRate makes every message independently vanish in flight with
// probability p. Setup time only.
func (n *ShardedNetwork) SetLossRate(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netsim: loss rate %g outside [0,1]", p))
	}
	n.lossRate = p
}

// IsUp reports whether the node is up. During a run, call it only from
// the node's own shard (its callbacks) — the liveness flag is owned by
// that shard.
func (n *ShardedNetwork) IsUp(id NodeID) bool { return n.up[n.checkSharded(id)] }

// SetUp transitions a node's liveness. During a run it must be called
// from the node's own Proc (churn schedules transitions onto the
// node's shard); p carries both the clock and the trace context.
func (n *ShardedNetwork) SetUp(p *shard.Proc, up bool) {
	i := p.ID()
	if n.up[i] == up {
		return
	}
	n.up[i] = up
	c := &n.counters[p.Shard()]
	if up {
		c.nUp++
	} else {
		c.nUp--
	}
	typ := obs.NodeDown
	if up {
		typ = obs.NodeUp
	}
	p.Emit(obs.Event{Type: typ, At: int64(p.Now()), Node: i, Peer: -1, Slot: -1, Hop: -1})
}

// Send places a message on the wire from p's node. Semantics match
// Network.Send: nothing is sent if the sender is down; bytes are
// charged when the message enters the wire; delivery happens one
// one-way latency later and requires the destination up with a handler
// installed. The loss coin flip draws from the sender's per-node RNG.
func (n *ShardedNetwork) Send(p *shard.Proc, to NodeID, msg Message) bool {
	fi, ti := p.ID(), n.checkSharded(to)
	if msg.Size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", msg.Size))
	}
	now := int64(p.Now())
	st := &n.counters[p.Shard()].stats
	if !n.up[fi] {
		st.DroppedSender++
		p.Emit(msgEvent(obs.MsgDropped, now, fi, ti, msg, obs.ReasonSenderDown))
		return false
	}
	st.Sent++
	st.Bytes += uint64(msg.Size)
	p.Emit(msgEvent(obs.MsgSent, now, fi, ti, msg, obs.ReasonNone))
	if n.lossRate > 0 && p.RNG().Float64() < n.lossRate {
		st.DroppedLoss++
		p.Emit(msgEvent(obs.MsgDropped, now, fi, ti, msg, obs.ReasonLinkLoss))
		return true // bytes entered the wire; the message just never arrives
	}
	p.ScheduleNode(ti, n.lat.OneWay(fi, ti), func(q *shard.Proc) {
		n.deliver(q, NodeID(fi), msg)
	})
	return true
}

// deliver runs on the destination node's shard.
func (n *ShardedNetwork) deliver(q *shard.Proc, from NodeID, msg Message) {
	ti := q.ID()
	now := int64(q.Now())
	st := &n.counters[q.Shard()].stats
	if !n.up[ti] {
		st.DroppedReceiver++
		q.Emit(msgEvent(obs.MsgDropped, now, int(from), ti, msg, obs.ReasonReceiverDown))
		return
	}
	h := n.handlers[ti]
	if h == nil {
		st.DroppedReceiver++
		q.Emit(msgEvent(obs.MsgDropped, now, int(from), ti, msg, obs.ReasonNoHandler))
		return
	}
	st.Delivered++
	q.Emit(msgEvent(obs.MsgDelivered, now, ti, int(from), msg, obs.ReasonNone))
	h(q, from, msg)
}

// Stats sums the per-shard counters. Call it between runs, not while
// shards are executing.
func (n *ShardedNetwork) Stats() Stats {
	var out Stats
	for i := range n.counters {
		s := &n.counters[i].stats
		out.Sent += s.Sent
		out.Delivered += s.Delivered
		out.DroppedSender += s.DroppedSender
		out.DroppedReceiver += s.DroppedReceiver
		out.DroppedLoss += s.DroppedLoss
		out.Bytes += s.Bytes
	}
	return out
}

// UpCount sums the per-shard liveness counters. Call it between runs.
func (n *ShardedNetwork) UpCount() int {
	total := 0
	for i := range n.counters {
		total += n.counters[i].nUp
	}
	return total
}

func (n *ShardedNetwork) checkSharded(id NodeID) int {
	if id < 0 || int(id) >= len(n.up) {
		panic(fmt.Sprintf("netsim: node id %d out of range [0, %d)", id, len(n.up)))
	}
	return int(id)
}
