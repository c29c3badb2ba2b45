package onion

import (
	"resilientmix/internal/bufpool"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
)

// DataFunc receives an application payload at the responder together
// with a handle for replying along the reverse path. plain was opened
// in place, so it lies in the buffer the payload crossed the network
// in. When that buffer is pooled, h carries its handle: a callee that
// takes it (ReplyHandle.TakeBuffer) owns the buffer and releases it
// once nothing reads plain any more; a callee that does not may keep
// plain, and the buffer is never reused.
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
	r := &Responder{id: id, net: net, eng: eng, streams: NewStreams(simEnv(eng.RNG(), suite, nil), priv, int64(ttl)), onData: onData}
	net.AddNodeListener(id, func(_ netsim.NodeID, up bool) {
		if !up {
			r.streams.Wipe()
		}
	})
	eng.Every(ttl, ttl, func() { r.streams.Sweep(int64(eng.Now())) })
	return r
}

// Dropped returns the number of undecryptable deliveries.
func (r *Responder) Dropped() uint64 { return r.dropped }

// handleDeliver processes a delivery from a terminal relay.
func (r *Responder) handleDeliver(from netsim.NodeID, msg *packet, size int) {
	key, plain, ok := r.streams.Open(int64(r.eng.Now()), msg.SID, msg.Body)
	if !ok {
		r.dropped++
		emitRelayDropped(r.net, r.id, msg.Trace, size, obs.ReasonBadLayer)
		bufpool.Release(msg.Buf)
		return
	}
	if r.onData != nil {
		r.onData(ReplyHandle{resp: r, relay: from, sid: msg.SID, key: key, buf: msg.Buf, Flow: msg.Flow}, plain)
	}
}

// ReplyHandle lets the responder application answer along the reverse
// path that delivered a payload.
type ReplyHandle struct {
	resp  *Responder
	relay netsim.NodeID
	sid   StreamID
	key   onioncrypt.Cipher // the delivering stream's, for this reply
	buf   *[]byte           // the pooled buffer the delivery lies in, or nil
	// Flow is the bandwidth account of the delivering message; replies
	// sent through the handle default to charging it.
	Flow *metrics.Flow
}

// TakeBuffer returns the handle of the pooled buffer the delivery lies
// in (nil when it lies in none) and clears it from h, so that a handle
// kept for later replies holds no buffer. The caller owns the buffer
// from then on and releases it (bufpool.Release) once nothing reads the
// delivered bytes.
func (h *ReplyHandle) TakeBuffer() *[]byte {
	bp := h.buf
	h.buf = nil
	return bp
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
// it is handed, so a reply takes one pooled buffer — the one every
// relay on the way back seals its layer into, and the initiator's
// ReverseFunc is handed — and no copy beside it.
func (h ReplyHandle) ReplyApp(plainLen int, plain func([]byte) []byte, flow *metrics.Flow) bool {
	// The room reverseLayer gives a buffer of its own — reverseSlack
	// layers on either side of the message — so that no relay on the
	// paper's paths moves it; the responder's layer is the first.
	suite := h.resp.streams.env.Suite
	pre, post := suite.SymPrefix(), suite.SymOverhead()-suite.SymPrefix()
	bp := bufpool.Get(reverseSlack*pre + plainLen + reverseSlack*post)
	s, err := h.resp.streams.AppendReply((*bp)[:(reverseSlack-1)*pre], h.relay, h.sid, h.key, plainLen, plain)
	if err != nil {
		bufpool.Release(bp)
		return false
	}
	return transmit(h.resp.net, h.resp.id, &s, bp, flow, obs.Tag{})
}
