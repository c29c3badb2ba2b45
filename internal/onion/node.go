package onion

import (
	"resilientmix/internal/bufpool"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// Node bundles the three roles a peer can play — relay for others'
// paths, initiator of its own, responder for traffic addressed to it —
// and dispatches the onion packets among them. Every peer in the
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
	// OnReverse receives the reverse traffic of the node's paths that
	// carry no callback of their own (Path.OnReverse); without either,
	// it is dropped.
	OnReverse ReverseFunc
	// OnData, if set, enables the responder role.
	OnData DataFunc
}

// NewNode creates a peer's onion roles and registers them on the mux.
func NewNode(net *netsim.Network, id netsim.NodeID, dir *Directory, mux *netsim.Mux, cfg NodeConfig) *Node {
	n := &Node{
		ID:    id,
		Relay: NewRelay(net, id, dir, cfg.StateTTL),
	}
	n.Initiator = NewInitiator(net, id, dir, cfg.ConstructTimeout, cfg.OnReverse)
	if cfg.OnData != nil {
		n.Responder = NewResponder(net, id, dir.Suite(), dir.Private(id), cfg.StateTTL, cfg.OnData)
	}
	n.attach(mux)
	return n
}

func (n *Node) attach(mux *netsim.Mux) {
	mux.Route((*packet)(nil), netsim.HandlerFunc(n.handle))
}

// handle takes one packet off the wire, hands it to the role it is for
// and recycles it once the role returns.
func (n *Node) handle(from netsim.NodeID, m netsim.Message) {
	p := m.Payload.(*packet)
	n.dispatch(from, p, m.Size)
	*p = packet{}
	packetPool.Put(p)
}

// dispatch picks p's role. Acks and reverse messages on the initiator's
// own streams end at the initiator; on any other stream this node is an
// intermediate relay of someone else's path.
func (n *Node) dispatch(from netsim.NodeID, p *packet, size int) {
	switch p.Kind {
	case KindDeliver:
		if n.Responder != nil {
			n.Responder.handleDeliver(from, p, size)
		} else {
			bufpool.Release(p.Buf)
		}
		return
	case KindAck, KindReverse:
		if n.Initiator == nil {
			break
		}
		if path := n.Initiator.paths[p.SID]; path != nil {
			if p.Kind == KindAck {
				n.Initiator.handleConstructAck(path)
			} else {
				n.Initiator.handleReverse(path, p)
			}
			return
		}
	}
	n.Relay.handle(from, p, size)
}
