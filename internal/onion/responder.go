package onion

import (
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// DataFunc receives an application payload at the responder together
// with a handle for replying along the reverse path.
type DataFunc func(h ReplyHandle, plain []byte)

// Responder is the destination-side endpoint D in the simulator: it
// feeds deliveries to the node's Streams and hands what opens to the
// application, which can reply along the delivering path (§4.2).
type Responder struct {
	id      netsim.NodeID
	net     *netsim.Network
	eng     *sim.Engine
	streams *Streams
	onData  DataFunc
	dropped uint64
}

// NewResponder creates the responder endpoint for a node. The onData
// callback runs for every decrypted payload.
func NewResponder(net *netsim.Network, id netsim.NodeID, suite onioncrypt.Suite, priv onioncrypt.PrivateKey, ttl sim.Time, onData DataFunc) *Responder {
	if ttl <= 0 {
		ttl = DefaultStateTTL
	}
	eng := net.Engine()
	r := &Responder{id: id, net: net, eng: eng, streams: NewStreams(simEnv(eng.RNG(), suite), priv, int64(ttl)), onData: onData}
	net.AddStateListener(func(nid netsim.NodeID, up bool) {
		if nid == id && !up {
			r.streams.Wipe()
		}
	})
	eng.Every(ttl, ttl, func() { r.streams.Sweep(int64(eng.Now())) })
	return r
}

// Dropped returns the number of undecryptable deliveries.
func (r *Responder) Dropped() uint64 { return r.dropped }

// handleDeliver processes a delivery from a terminal relay.
func (r *Responder) handleDeliver(from netsim.NodeID, msg packet, size int) {
	key, plain, ok := r.streams.Open(int64(r.eng.Now()), msg.SID, msg.Body)
	if !ok {
		r.dropped++
		emitRelayDropped(r.net, r.id, msg.Trace, size, obs.ReasonBadLayer)
		return
	}
	if r.onData != nil {
		r.onData(ReplyHandle{resp: r, relay: from, sid: msg.SID, key: key, Flow: msg.Flow}, plain)
	}
}

// ReplyHandle lets the responder application answer along the reverse
// path that delivered a payload.
type ReplyHandle struct {
	resp  *Responder
	relay netsim.NodeID
	sid   StreamID
	key   onioncrypt.Cipher // the delivering stream's, for this reply
	// Flow is the bandwidth account of the delivering message; replies
	// sent through the handle default to charging it.
	Flow *metrics.Flow
}

// From returns the terminal relay the payload arrived through.
func (h ReplyHandle) From() netsim.NodeID { return h.relay }

// StreamID returns the delivering stream's identifier.
func (h ReplyHandle) StreamID() StreamID { return h.sid }

// Reply encrypts plain with the stream's symmetric key and sends it
// back up the path. It reports whether the message entered the network.
// plain is only read.
func (h ReplyHandle) Reply(plain []byte, flow *metrics.Flow) bool {
	return h.ReplyApp(len(plain), func(b []byte) []byte { return append(b, plain...) }, flow)
}

// ReplyApp is Reply for a message its caller encodes where it is sealed
// (Streams.AppendReply): plain appends the plainLen bytes to the slice
// it is handed, so a reply allocates one buffer — the one every relay
// on the way back seals its layer into — and no copy beside it.
func (h ReplyHandle) ReplyApp(plainLen int, plain func([]byte) []byte, flow *metrics.Flow) bool {
	s, err := h.resp.streams.AppendReply(nil, h.relay, h.sid, h.key, plainLen, plain)
	if err != nil {
		return false
	}
	return transmit(h.resp.net, h.resp.id, s, flow, obs.Tag{})
}
