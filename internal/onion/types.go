// Package onion implements the paper's anonymous routing machinery:
// layered path-construction onions (§4.1), symmetric payload onions with
// the responder key sealed to the responder's public key (§4.2), relay
// path-state caches with TTL expiry (§4.3), last-hop destination
// override for path reuse (§4.4), construction acknowledgments and
// reverse-path (response) routing.
//
// codec.go is the onion formats and hop.go the hop roles — relay Table,
// responder Streams, initiator PathKeys — with no transport and no
// clock in them. The rest of the package (Relay, Initiator, Responder,
// Node and the typed messages) drives that core on the simulated
// network; internal/livenet drives the same core on TCP sockets.
//
// The protocols of internal/core (CurMix, SimRep, SimEra) are thin
// orchestrations over this package: they decide which paths exist and
// what segments travel on them; this package makes individual paths
// work.
package onion

import (
	"math/rand"

	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
)

// StreamID identifies one hop-to-hop stream. Each relay maps the
// upstream stream ID to a freshly drawn downstream one, so observers
// cannot correlate a path's links by identifier.
type StreamID uint64

// msgHeaderSize is the serialized size of the fixed message header:
// 1 byte kind + 8 bytes stream ID.
const msgHeaderSize = 1 + 8

// ConstructMsg carries a path-construction onion toward the next relay
// (§4.1: [Path_i, sid_{i-1}]).
type ConstructMsg struct {
	SID   StreamID
	Onion []byte
	Flow  *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ConstructMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Onion) }

// ConstructDataMsg combines path construction with a payload in a single
// pass (§4.2: "We can perform path construction and message sending in
// the same time... This allows the initiator to form paths on-demand
// ... without message delays"). Each relay installs state from its onion
// layer AND strips one payload layer, forwarding both inward.
type ConstructDataMsg struct {
	SID   StreamID
	Onion []byte
	Body  []byte
	Flow  *metrics.Flow
	// Trace is the data-plane correlation tag; each relay forwards it
	// advanced one hop. Trace metadata only — never protocol input.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m ConstructDataMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Onion) + 4 + len(m.Body) }

// ConstructAck travels hop-by-hop back to the initiator once the last
// relay has installed its path state, implementing the end-to-end
// acknowledgment of §4.5 for construction.
type ConstructAck struct {
	SID  StreamID
	Flow *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ConstructAck) WireSize() int { return msgHeaderSize }

// DataMsg carries one payload onion layer downstream between relays
// (§4.2: [sid_i, PayLoad_{i+1}]).
type DataMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
	// Trace is the data-plane correlation tag; see ConstructDataMsg.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m DataMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// DeliverMsg is the final hop: the terminal relay hands the responder
// blob to the responder D.
type DeliverMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
	// Trace is the data-plane correlation tag; see ConstructDataMsg.
	Trace obs.Tag
}

// WireSize returns the on-the-wire size.
func (m DeliverMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// ReverseMsg travels from the responder back toward the initiator; each
// relay adds one symmetric layer with its cached key (§4.2 "On each
// reverse path, the payload is encrypted by the cached symmetric key at
// each hop").
type ReverseMsg struct {
	SID  StreamID
	Body []byte
	Flow *metrics.Flow
}

// WireSize returns the on-the-wire size.
func (m ReverseMsg) WireSize() int { return msgHeaderSize + 4 + len(m.Body) }

// emitRelayDropped records a tagged data-plane message consumed above
// the wire — a relay or responder that could not process it. Without
// this event the message's causal chain would end at a MsgDelivered
// with no explanation. Untagged messages are not recorded: their drops
// are already aggregated in relay stats.
func emitRelayDropped(net *netsim.Network, node netsim.NodeID, tag obs.Tag, size int, reason obs.Reason) {
	if tag.ID == 0 {
		return
	}
	tr := net.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Type: obs.RelayDropped, At: int64(net.Engine().Now()),
		Node: int(node), Peer: -1, ID: tag.ID, Seq: int64(tag.Seg),
		Slot: int(tag.Slot), Hop: int(tag.Hop), Size: size, Reason: reason,
	})
}

// simEnv is the simulator's hop-layer environment: every draw comes
// from the engine's seeded source, so a seed fixes the whole history.
func simEnv(rng *rand.Rand, suite onioncrypt.Suite) Env {
	return Env{Suite: suite, Rand: rng, NewSID: func() StreamID { return StreamID(rng.Uint64()) }}
}

// transmit puts one hop-layer output on the simulated wire as its
// typed message and charges its size to the flow if it was actually
// placed on the wire. tag is the data-plane correlation tag; it rides
// the data-plane kinds only.
func transmit(net *netsim.Network, from netsim.NodeID, s Send, flow *metrics.Flow, tag obs.Tag) bool {
	var m netsim.Message
	switch s.Kind {
	case KindConstruct:
		p := ConstructMsg{SID: s.SID, Onion: s.Onion, Flow: flow}
		m = netsim.Message{Payload: p, Size: p.WireSize()}
	case KindConstructData:
		p := ConstructDataMsg{SID: s.SID, Onion: s.Onion, Body: s.Body, Flow: flow, Trace: tag}
		m = netsim.Message{Payload: p, Size: p.WireSize(), Trace: tag}
	case KindAck:
		p := ConstructAck{SID: s.SID, Flow: flow}
		m = netsim.Message{Payload: p, Size: p.WireSize()}
	case KindData:
		p := DataMsg{SID: s.SID, Body: s.Body, Flow: flow, Trace: tag}
		m = netsim.Message{Payload: p, Size: p.WireSize(), Trace: tag}
	case KindDeliver:
		p := DeliverMsg{SID: s.SID, Body: s.Body, Flow: flow, Trace: tag}
		m = netsim.Message{Payload: p, Size: p.WireSize(), Trace: tag}
	case KindReverse:
		p := ReverseMsg{SID: s.SID, Body: s.Body, Flow: flow}
		m = netsim.Message{Payload: p, Size: p.WireSize()}
	}
	if !net.Send(from, s.To, m) {
		return false
	}
	flow.Add(m.Size)
	return true
}
