package core

import (
	"fmt"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// This file implements mutual anonymity via the paper's suggested
// "additional level of redirection" (§3): a rendezvous node glues two
// independently constructed path sets together. The hidden responder
// builds k onion paths to the rendezvous and registers a service tag;
// the initiator builds its own k paths to the rendezvous and sends coded
// segments for that tag; the rendezvous forwards them down the
// responder's reverse paths. Neither endpoint learns the other's
// identity, and the rendezvous sees only two anonymous path sets.

// Rendezvous is the glue service running on one node. It piggybacks on
// the node's Receiver: registration and service segments arrive through
// the same onion machinery as ordinary traffic.
type Rendezvous struct {
	w  *World
	id netsim.NodeID

	tags  map[uint64]*replyPaths // by service tag
	convs map[uint64]*replyPaths // by conversation: the initiator's reverse paths

	stats RendezvousStats
}

// RendezvousStats counts the service's activity.
type RendezvousStats struct {
	Registrations    int
	SegmentsInbound  int // initiator → service forwards
	SegmentsOutbound int // service → initiator reply forwards
	DroppedNoTag     int
	DroppedNoConv    int
}

// replyPaths is the reverse half of one anonymous path set — a service's
// registration, or an initiator's conversation — one handle per distinct
// path, with the time the rendezvous forgets it.
type replyPaths struct {
	handles []onion.ReplyHandle
	expires sim.Time
}

// addHandle appends h unless the set already holds its path.
func addHandle(handles []onion.ReplyHandle, h onion.ReplyHandle) []onion.ReplyHandle {
	for _, have := range handles {
		if have.From() == h.From() && have.StreamID() == h.StreamID() {
			return handles
		}
	}
	return append(handles, h)
}

// rendezvousTTL bounds idle registrations and conversations.
const rendezvousTTL = 30 * sim.Minute

// NewRendezvous attaches the rendezvous service to a node. The node's
// Receiver keeps serving ordinary traffic.
func (w *World) NewRendezvous(id netsim.NodeID) *Rendezvous {
	r := &Rendezvous{
		w:     w,
		id:    id,
		tags:  make(map[uint64]*replyPaths),
		convs: make(map[uint64]*replyPaths),
	}
	w.Receivers[id].setServiceHooks(r)
	w.Eng.Every(rendezvousTTL, rendezvousTTL, r.sweep)
	return r
}

// Stats returns a snapshot of the service counters.
func (r *Rendezvous) Stats() RendezvousStats { return r.stats }

func (r *Rendezvous) sweep() {
	now := r.w.Eng.Now()
	for _, sets := range []map[uint64]*replyPaths{r.tags, r.convs} {
		for id, set := range sets {
			if set.expires <= now {
				delete(sets, id)
			}
		}
	}
}

// remember adds h to the path set id of sets and refreshes its expiry.
func (r *Rendezvous) remember(sets map[uint64]*replyPaths, id uint64, h onion.ReplyHandle) {
	set := sets[id]
	if set == nil {
		set = &replyPaths{}
		sets[id] = set
	}
	set.handles = addHandle(set.handles, h)
	set.expires = r.w.Eng.Now() + rendezvousTTL
}

// handleRegister implements serviceHooks.
func (r *Rendezvous) handleRegister(h onion.ReplyHandle, tag uint64) {
	r.remember(r.tags, tag, h)
	r.stats.Registrations++
}

// handleService implements serviceHooks: forward segments between the
// two path sets.
func (r *Rendezvous) handleService(h onion.ReplyHandle, msg session.ServiceSegment) {
	to, forwarded, dropped := r.tags[msg.Tag], &r.stats.SegmentsInbound, &r.stats.DroppedNoTag
	if msg.Kind == session.KindServiceReply {
		to, forwarded, dropped = r.convs[msg.Conv()], &r.stats.SegmentsOutbound, &r.stats.DroppedNoConv
	}
	if to == nil || len(to.handles) == 0 {
		*dropped++
		return
	}
	to.expires = r.w.Eng.Now() + rendezvousTTL
	if msg.Kind == session.KindToService {
		// Remember the initiator's reverse paths for the reply leg.
		r.remember(r.convs, msg.Conv(), h)
	}
	fwd := session.ServiceSegment{Kind: session.KindInbound, Segment: msg.Segment}
	if to.handles[int(msg.Index)%len(to.handles)].Reply(fwd.Encode(), h.Flow) {
		*forwarded++
	}
}

// --- session-side service API -----------------------------------------

// RegisterService announces a hidden service: one registration message
// travels down every live path of the session (whose responder must be
// the rendezvous node), giving the rendezvous one reverse handle per
// path. Re-register periodically to keep the registration fresh and to
// cover repaired paths.
func (s *Session) RegisterService(tag uint64) error {
	if !s.established {
		return fmt.Errorf("core: session not established")
	}
	s.openIO()
	initiator := s.w.Nodes[s.self].Initiator
	msg := session.EncodeRegister(tag)
	sent := 0
	for i, p := range s.paths {
		if !s.m.SlotAlive(i) {
			continue
		}
		if err := initiator.SendData(p, msg, &s.stats.DataFlow); err == nil {
			sent++
		}
	}
	if sent == 0 {
		return fmt.Errorf("core: no live paths to register over")
	}
	return nil
}

// SendServiceMessage sends a message to a hidden service by tag through
// the session's responder (which must run a Rendezvous). It returns the
// conversation ID under which the service's replies will arrive via
// OnInbound.
func (s *Session) SendServiceMessage(tag uint64, data []byte) (uint64, error) {
	conv := s.w.Eng.RNG().Uint64()
	if err := s.sendServiceSegments(session.KindToService, tag, conv, data); err != nil {
		return 0, err
	}
	return conv, nil
}

// SendServiceReply answers a conversation previously delivered through
// OnInbound (hidden-responder side).
func (s *Session) SendServiceReply(conv uint64, data []byte) error {
	return s.sendServiceSegments(session.KindServiceReply, 0, conv, data)
}

// sendServiceSegments sends a message's segments per the session's
// allocation, unacknowledged: the rendezvous forwards, it does not ack.
func (s *Session) sendServiceSegments(kind byte, tag, conv uint64, data []byte) error {
	if !s.established {
		return fmt.Errorf("core: session not established")
	}
	s.openIO()
	segs, err := s.code.Split(data)
	if err != nil {
		return err
	}
	initiator := s.w.Nodes[s.self].Initiator
	m, n := s.params.codeShape()
	sent := 0
	s.m.Each(len(segs), s.scores(), func(slot, si int) {
		if !s.m.SlotAlive(slot) {
			return
		}
		msg := session.ServiceSegment{Kind: kind, Tag: tag, Segment: session.Segment{
			MID: conv, Index: int32(segs[si].Index), Total: int32(n), Needed: int32(m),
			Data: segs[si].Data,
		}}
		if initiator.SendData(s.paths[slot], msg.Encode(), &s.stats.DataFlow) == nil {
			sent++
			s.stats.SegmentsSent++
		}
	})
	if sent == 0 {
		return fmt.Errorf("core: no live paths")
	}
	return nil
}
