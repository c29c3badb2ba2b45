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
// Node and the packet they exchange) drives that core on the simulated
// network; internal/livenet drives the same core on TCP sockets.
//
// The protocols of internal/core (CurMix, SimRep, SimEra) are thin
// orchestrations over this package: they decide which paths exist and
// what segments travel on them; this package makes individual paths
// work.
package onion

import (
	"math/rand"
	"sync"

	"resilientmix/internal/bufpool"
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

// packet is the one message the simulator's driver puts on the wire: a
// hop-layer Send with the bandwidth account it is charged to and the
// data-plane trace tag, which each relay forwards advanced one hop
// (trace metadata only — never protocol input). It travels as a pointer
// and is pooled: transmit takes one, and Node.handle hands it to the
// role it is for and puts it back once the role returns, which rests on
// netsim.Message's contract that a message is delivered at most once and
// kept by no one else. A role reads the packet and keeps no pointer to
// it. The pool is shared by every world — internal/experiments runs
// them on parallel goroutines — hence a sync.Pool and not a free list.
//
// Buf is the handle of the pooled buffer (internal/bufpool) Body lies
// in, nil when it lies in none: a payload onion from SendApp, a reply
// from ReplyApp, and the same buffer on every hop after, since relays
// open and seal their layers in place. The node a packet arrives at
// owns Buf: a relay hands it on with the body it forwards or releases
// it, the responder hands it to the DataFunc on its ReplyHandle and the
// initiator to the ReverseFunc. A packet netsim drops goes back to the
// pool, with its buffer, by its Recycle.
type packet struct {
	Kind  Kind
	SID   StreamID
	Onion []byte // Path_i of §4.1 (KindConstruct, KindConstructData)
	Body  []byte // payload layer, responder blob or reverse body
	Room  []byte // the buffer a reverse body lies in (Send.Room)
	Buf   *[]byte
	Flow  *metrics.Flow
	Trace obs.Tag
}

var packetPool = sync.Pool{New: func() any { return new(packet) }}

// Recycle is the end of a packet netsim dropped: nothing holds it, or
// its buffer, any more.
func (p *packet) Recycle() {
	bufpool.Release(p.Buf)
	*p = packet{}
	packetPool.Put(p)
}

// wireSize is a packet's on-the-wire size: the header, and a 4-byte
// length in front of each field its kind carries.
func wireSize(kind Kind, onion, body []byte) int {
	switch kind {
	case KindConstruct:
		return msgHeaderSize + 4 + len(onion)
	case KindConstructData:
		return msgHeaderSize + 4 + len(onion) + 4 + len(body)
	case KindAck:
		return msgHeaderSize
	default: // KindData, KindDeliver, KindReverse
		return msgHeaderSize + 4 + len(body)
	}
}

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
// from the engine's seeded source, so a seed fixes the whole history,
// and records given back go to the spares of the world the node is in
// (nil: a table keeps its own).
func simEnv(rng *rand.Rand, suite onioncrypt.Suite, spares *spares) Env {
	return Env{Suite: suite, Rand: rng, NewSID: func() StreamID { return StreamID(rng.Uint64()) }, spares: spares}
}

// transmit puts one hop-layer output on the simulated wire as a packet
// and charges its size to the flow if it was actually placed on the
// wire. tag is the data-plane correlation tag; it rides the data-plane
// kinds only. buf is the pooled buffer s.Body lies in, or nil; it goes
// with the packet.
func transmit(net *netsim.Network, from netsim.NodeID, s *Send, buf *[]byte, flow *metrics.Flow, tag obs.Tag) bool {
	if s.Kind != KindConstructData && s.Kind != KindData && s.Kind != KindDeliver {
		tag = obs.Tag{}
	}
	// Field by field: a composite literal is built aside and copied in.
	p := packetPool.Get().(*packet)
	p.Kind, p.SID, p.Buf, p.Flow, p.Trace = s.Kind, s.SID, buf, flow, tag
	p.Onion, p.Body, p.Room = s.Onion, s.Body, s.Room
	size := wireSize(s.Kind, s.Onion, s.Body)
	if !net.Send(from, s.To, netsim.Message{Payload: p, Size: size, Trace: tag}) {
		return false // never on the wire; netsim recycled the packet
	}
	flow.Add(size)
	return true
}
