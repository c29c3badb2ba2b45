package onion

import (
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// Node bundles the three roles a peer can play — relay for others'
// paths, initiator of its own, responder for traffic addressed to it —
// and dispatches the onion message types among them. Every peer in the
// paper's system is at least a relay; the other two roles are optional.
type Node struct {
	ID        netsim.NodeID
	Relay     *Relay
	Initiator *Initiator
	Responder *Responder
}

// NodeConfig configures NewNode.
type NodeConfig struct {
	// StateTTL is the relay/responder path-state TTL; zero selects
	// DefaultStateTTL.
	StateTTL sim.Time
	// ConstructTimeout is the initiator's construction-ack timeout; zero
	// selects DefaultConstructTimeout.
	ConstructTimeout sim.Time
	// OnReverse, if set, enables the initiator role.
	OnReverse ReverseFunc
	// OnData, if set, enables the responder role.
	OnData DataFunc
}

// NewNode creates a peer's onion roles and registers them on the mux.
func NewNode(net *netsim.Network, id netsim.NodeID, dir *Directory, mux *netsim.Mux, cfg NodeConfig) *Node {
	n := &Node{
		ID:    id,
		Relay: NewRelay(net, id, dir.Suite(), dir.Private(id), cfg.StateTTL),
	}
	n.Initiator = NewInitiator(net, id, dir, cfg.ConstructTimeout, cfg.OnReverse)
	if cfg.OnData != nil {
		n.Responder = NewResponder(net, id, dir.Suite(), dir.Private(id), cfg.StateTTL, cfg.OnData)
	}
	n.attach(mux)
	return n
}

func (n *Node) attach(mux *netsim.Mux) {
	mux.Route(ConstructMsg{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		n.Relay.handleConstruct(from, m.Payload.(ConstructMsg))
	}))
	mux.Route(ConstructDataMsg{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		n.Relay.handleConstructData(from, m.Payload.(ConstructDataMsg))
	}))
	mux.Route(ConstructAck{}, netsim.HandlerFunc(func(_ netsim.NodeID, m netsim.Message) {
		ack := m.Payload.(ConstructAck)
		// The initiator's own streams take priority; otherwise this node
		// is an intermediate relay on someone else's path.
		if n.Initiator != nil && n.Initiator.Owns(ack.SID) {
			n.Initiator.handleConstructAck(ack)
			return
		}
		n.Relay.handleConstructAck(ack)
	}))
	mux.Route(DataMsg{}, netsim.HandlerFunc(func(_ netsim.NodeID, m netsim.Message) {
		n.Relay.handleData(m.Payload.(DataMsg))
	}))
	mux.Route(DeliverMsg{}, netsim.HandlerFunc(func(from netsim.NodeID, m netsim.Message) {
		if n.Responder != nil {
			n.Responder.handleDeliver(from, m.Payload.(DeliverMsg))
		}
	}))
	mux.Route(ReverseMsg{}, netsim.HandlerFunc(func(_ netsim.NodeID, m netsim.Message) {
		rev := m.Payload.(ReverseMsg)
		if n.Initiator != nil && n.Initiator.Owns(rev.SID) {
			n.Initiator.handleReverse(rev)
			return
		}
		n.Relay.handleReverse(rev)
	}))
}
