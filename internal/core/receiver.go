package core

import (
	"fmt"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// DeliveredFunc is invoked when the receiver reconstructs a message: the
// message ID, the reassembled bytes, and the virtual time of
// reconstruction. data is valid only during the call: the receiver
// rebuilds the message into a pooled buffer that goes back when the
// callback returns, so a callee that keeps the message copies it.
type DeliveredFunc func(mid uint64, data []byte, at sim.Time)

// inboundTTL bounds how long partial and reconstructed messages are
// buffered. Reconstructed entries must outlive realistic reply delays
// (an anonymous mailbox answers minutes later over the cached reverse
// handles), so this is deliberately generous; memory is bounded by the
// sweep either way.
const inboundTTL = 30 * sim.Minute

// Receiver is the responder-side application, the simulator's driver of
// the session reassembler: it acknowledges each arriving coded segment
// (feeding the initiator's failure detector), delivers the message once
// m distinct segments arrived (§4.2), and can erasure-code a response
// back over the delivering paths, whose reply handles it keeps. It
// gives back every buffer it is done with: a delivery's at once unless
// the reassembler stored its segment (the reassembler gives that back
// once the message is rebuilt or forgotten), the rebuilt message's
// once onDelivered returns.
type Receiver struct {
	id  netsim.NodeID
	eng *sim.Engine

	onDelivered DeliveredFunc
	hooks       serviceHooks

	tracer obs.Tracer
	m      *worldMetrics

	// asm keeps, with each message, one reply handle per distinct
	// delivering path: the reverse paths a response can use.
	asm       *session.Reassembler[onion.ReplyHandle]
	delivered uint64
	// handleBlock is where new messages' lists of reply handles are
	// cut from.
	handleBlock []onion.ReplyHandle
}

// bindObs attaches the world's tracer and metrics. Receivers built
// directly (outside NewWorld) run unobserved; every use of tracer and
// m is nil-guarded for that case.
func (r *Receiver) bindObs(t obs.Tracer, m *worldMetrics) {
	r.tracer = t
	r.m = m
}

// serviceHooks is implemented by a Rendezvous attached to this node.
type serviceHooks interface {
	handleRegister(h onion.ReplyHandle, tag uint64)
	handleService(h onion.ReplyHandle, msg session.ServiceSegment)
}

// setServiceHooks installs the rendezvous handlers.
func (r *Receiver) setServiceHooks(h serviceHooks) { r.hooks = h }

// NewReceiver creates the responder application for a node.
func NewReceiver(id netsim.NodeID, eng *sim.Engine, onDelivered DeliveredFunc) *Receiver {
	r := &Receiver{
		id:          id,
		eng:         eng,
		onDelivered: onDelivered,
		asm:         session.NewReassembler[onion.ReplyHandle](int64(inboundTTL)),
	}
	eng.Every(inboundTTL, inboundTTL, r.sweep)
	return r
}

// Delivered returns the number of reconstructed messages.
func (r *Receiver) Delivered() uint64 { return r.delivered }

// SetOnDelivered replaces the delivery callback.
func (r *Receiver) SetOnDelivered(f DeliveredFunc) { r.onDelivered = f }

func (r *Receiver) sweep() { r.asm.Sweep(int64(r.eng.Now())) }

// HandleData is the onion.DataFunc for this node: it decodes an
// application payload and processes segments and probes. It takes the
// delivery's buffer off h, so the handles it keeps hold none.
func (r *Receiver) HandleData(h onion.ReplyHandle, plain []byte) {
	buf := h.TakeBuffer()
	msg, err := session.DecodeApp(plain)
	if err != nil {
		bufpool.Release(buf)
		return
	}
	switch msg.Kind {
	case session.KindProbe:
		// Probes are acknowledged but never delivered.
		ack(h, msg.Ack)
		bufpool.Release(buf)
		return
	case session.KindRegister, session.KindToService, session.KindServiceReply:
		switch {
		case r.hooks == nil:
			// Service traffic at a node running no rendezvous is dropped.
		case msg.Kind == session.KindRegister:
			r.hooks.handleRegister(h, msg.Tag)
		default:
			r.hooks.handleService(h, msg.Service)
		}
		bufpool.Release(buf)
		return
	case session.KindSegment:
	default:
		bufpool.Release(buf)
		return
	}
	seg := msg.Seg
	verdict, handles := r.asm.Add(int64(r.eng.Now()), seg, buf)
	if verdict == session.Rejected {
		// Bad shape, or one that disagrees with the MID's earlier segments.
		bufpool.Release(buf)
		return
	}
	if cap(*handles) == 0 {
		// At most one handle per segment; the reassembler vetted the
		// shape. A message's list lives on with its recycled record, so
		// only the first horizon's messages need one, cut from a block
		// sized as the reassembler's records are.
		if len(r.handleBlock) < int(seg.Total) {
			r.handleBlock = make([]onion.ReplyHandle, min(max(r.asm.Len(), 8), 256)*int(seg.Total))
		}
		*handles = r.handleBlock[:0:seg.Total]
		r.handleBlock = r.handleBlock[seg.Total:]
	}
	*handles = addHandle(*handles, h)
	ack(h, session.Ack{MID: seg.MID, Index: seg.Index})
	switch verdict {
	case session.Duplicate, session.Late:
		bufpool.Release(buf)
	case session.Ready:
		r.reconstruct(seg)
	}
}

// ack acknowledges a segment or probe up the path it arrived on,
// encoded where it is sealed: the ack's one buffer is the one the
// relays on the way back wrap their layers around.
func ack(h onion.ReplyHandle, a session.Ack) {
	h.ReplyApp(session.AckSize, func(b []byte) []byte { return a.AppendEncode(b, session.KindSegAck) }, h.Flow)
}

// reconstruct rebuilds the message seg completed into a pooled buffer,
// released when onDelivered returns. The reassembler stores only
// segments as long as a message's first, so the buffer is no more than
// the bytes the m stored segments hold.
func (r *Receiver) reconstruct(seg session.Segment) {
	mid := seg.MID
	buf := bufpool.Get(int(seg.Needed) * len(seg.Data))
	defer bufpool.Release(buf)
	data, segments, first, ok := r.asm.ReconstructInto(mid, *buf)
	if !ok {
		return
	}
	r.delivered++
	now := r.eng.Now()
	if r.m != nil {
		r.m.recvDelivered.Inc()
		r.m.reconstructMs.Observe(float64(now-sim.Time(first)) / float64(sim.Millisecond))
	}
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{
			Type: obs.SegmentReconstructed, At: int64(now),
			Node: int(r.id), Peer: -1, ID: mid,
			Seq: int64(segments), Slot: -1, Hop: -1, Size: len(data),
		})
	}
	if r.onDelivered != nil {
		r.onDelivered(mid, data, now)
	}
}

// Respond erasure-codes a response with the same shape as the request
// and sends the segments back over the reverse paths that delivered the
// request, distributed round-robin (§4.2: "sends the message segments
// back over the k paths"). It returns the number of segments sent.
func (r *Receiver) Respond(mid uint64, data []byte, flow *metrics.Flow) (int, error) {
	needed, total, done, handles, _ := r.asm.Shape(mid)
	if !done {
		return 0, fmt.Errorf("core: no reconstructed message %d to respond to", mid)
	}
	if len(handles) == 0 {
		return 0, fmt.Errorf("core: no reverse paths for message %d", mid)
	}
	code, err := erasure.New(int(needed), int(total))
	if err != nil {
		return 0, err
	}
	segs, err := code.Split(data)
	if err != nil {
		return 0, err
	}
	sent := 0
	for i, s := range segs {
		msg := session.Segment{MID: mid, Index: int32(s.Index), Total: total, Needed: needed, Data: s.Data}
		if handles[i%len(handles)].Reply(msg.Encode(session.KindRespSeg), flow) {
			sent++
		}
	}
	return sent, nil
}
