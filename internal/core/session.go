package core

import (
	"fmt"
	"slices"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
	"resilientmix/internal/membership"
	"resilientmix/internal/metrics"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// SessionStats aggregates a session's activity.
type SessionStats struct {
	EstablishAttempts int
	MessagesSent      int
	SegmentsSent      int
	SegmentsAcked     int
	PathsDied         int
	PathsPredicted    int // condemned by the §4.5 liveness predictor
	PathsReplaced     int
	ResponsesReceived int
	ConstructFlow     metrics.Flow // bandwidth of all construction traffic
	DataFlow          metrics.Flow // bandwidth of all payload traffic
}

// Session is an initiator's communication session with one responder
// under one protocol configuration, as the simulator's driver of the
// session machine (internal/session): the machine owns the k path
// slots, the segment allocation, the ack ledger and §4.5's probing,
// condemnation and repair; this type turns its outputs into onion
// sends, engine timers, path constructions, trace events and counters,
// draws message IDs and relay choices from the engine RNG, and keeps
// what is not between "a message is sent" and "a slot is rebuilt":
// establishment attempts, responses and the rendezvous service API.
type Session struct {
	w         *World
	self      netsim.NodeID
	responder netsim.NodeID
	params    Params
	code      *erasure.Code
	provider  membership.Provider

	m *session.Machine
	// paths holds the path standing (or last standing) in each slot.
	paths []*onion.Path
	// choose, when set, replaces the mix choice of §4.9 (pick): tests
	// script it.
	choose func(n int, exclude []netsim.NodeID) ([][]netsim.NodeID, error)
	// onPath is the construction callback of every path of the session,
	// made once: it finds the path among the current establishment
	// attempt's (pending) or the slots' replacements (building).
	onPath func(*onion.Path, bool)
	// pending holds the current establishment attempt's paths by slot,
	// and resolved and stoodN how many of them have reported and stood;
	// building holds each slot's replacement under construction.
	pending  []*onion.Path
	resolved int
	stoodN   int
	building []*onion.Path

	// deadline is onDeadline as registered with the engine, on the first
	// Arm: a session that never sends registers nothing.
	deadline sim.Func
	// reverse is the OnReverse the session's paths carry, made with
	// the sessionIO by openIO when the session first sends: a session
	// that only establishes — the establishment experiments make one per
	// construction event — has neither.
	reverse onion.ReverseFunc
	*sessionIO

	established bool
	failed      bool
	establishAt sim.Time
	setDead     bool
	setDeadAt   sim.Time
	repair      bool // EnableRepair was called: the path set heals instead of dying

	stats SessionStats

	// OnEstablished fires once when establishment concludes: ok reports
	// whether at least MinPaths paths stand; attempts is the number of
	// construction rounds used.
	OnEstablished func(ok bool, attempts int)
	// OnSetDead fires once when fewer than MinPaths path slots remain
	// alive — the path set can no longer deliver (§6.1 path durability).
	OnSetDead func(at sim.Time)
	// OnResponse fires when a response message reconstructs at the
	// initiator.
	OnResponse func(mid uint64, data []byte, at sim.Time)
	// OnInbound fires when an unsolicited rendezvous-forwarded message
	// (mutual anonymity, KindInbound) reconstructs: hidden services
	// receive requests here, initiators receive service replies.
	OnInbound func(conv uint64, data []byte, at sim.Time)
}

// sessionIO is what a session keeps of the messages it sends and hears.
type sessionIO struct {
	// splits holds the buffer each message's coded segments lie in until
	// the machine's Forget, at the message's verdict; spare holds those it
	// has forgotten, for the next message to be split into. A transmit
	// reads its segment within the input that emits it, so no buffer is
	// pinned past its Forget.
	splits map[uint64][]byte
	spare  [][]byte
	// segs is SplitInto's descriptors, scratch the machine copies from.
	segs []erasure.Segment

	// Responses reassemble by the ID of a message this session sent,
	// rendezvous-forwarded conversations by their conversation ID. All
	// three forget a message between one and two inboundTTLs after they
	// last heard of it, by a sweep the first send or arrival of each
	// horizon runs (sweepAt): a session's memory is bounded by its rate,
	// not its age, and no engine event is added for it.
	sent      map[uint64]sim.Time // when each message went out
	responses *session.Reassembler[struct{}]
	inbound   *session.Reassembler[struct{}]
	sweepAt   sim.Time
}

// NewSession creates a session; Establish starts it.
func (w *World) NewSession(self, responder netsim.NodeID, params Params) (*Session, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	code, err := params.Code()
	if err != nil {
		return nil, err
	}
	if self == responder {
		return nil, fmt.Errorf("core: initiator and responder are the same node %d", self)
	}
	k := params.K
	slots := make([]*onion.Path, 3*k)
	s := &Session{
		w:         w,
		self:      self,
		responder: responder,
		params:    params,
		code:      code,
		provider:  w.Provider(self),
		paths:     slots[:k:k],
		pending:   slots[k : 2*k : 2*k],
		building:  slots[2*k:],
	}
	s.onPath = s.pathDone
	m, n := params.codeShape()
	// MaxRetransmits and MaxInflight stay zero: the simulator's message
	// gets one round and its queue no bound, so the machine arms one
	// deadline per message and nothing more.
	s.m = session.New(session.Config{
		K: params.K, M: m, N: n,
		Responder:  responder,
		AckTimeout: int64(params.AckTimeout),
	})
	return s, nil
}

// Params returns the session's (defaulted) parameters.
func (s *Session) Params() Params { return s.params }

// openIO makes what a session needs once it sends: the OnReverse its
// paths carry, which it gives the paths it already has, and its
// sessionIO. Every way of sending on the session's paths opens it
// first — reverse traffic answers a send — and so does anything
// arriving by handleReverse.
func (s *Session) openIO() {
	if s.sessionIO != nil {
		return
	}
	s.reverse = func(_ *onion.Path, _ netsim.NodeID, plain []byte, buf *[]byte, _ *metrics.Flow) {
		s.handleReverse(plain, buf)
	}
	for _, paths := range [...][]*onion.Path{s.paths, s.pending, s.building} {
		for _, p := range paths {
			if p != nil {
				p.OnReverse = s.reverse
			}
		}
	}
	s.sessionIO = &sessionIO{
		splits:    make(map[uint64][]byte),
		sent:      make(map[uint64]sim.Time),
		responses: session.NewReassembler[struct{}](int64(inboundTTL)),
		inbound:   session.NewReassembler[struct{}](int64(inboundTTL)),
	}
}

// pick chooses n disjoint relay lists avoiding exclude: the mix choice
// of §4.9 over the membership view, or the test's script (choose). The
// lists lie in world scratch until the next choice in the world; a path
// copies its relays.
func (s *Session) pick(n int, exclude []netsim.NodeID) ([][]netsim.NodeID, error) {
	if s.choose != nil {
		return s.choose(n, exclude)
	}
	w, l := s.w, s.params.L
	w.cands = s.provider.AppendCandidates(w.cands[:0], s.self)
	relays, err := mixchoice.AppendPaths(w.relays[:0], w.Eng.RNG(), s.params.Strategy, w.cands, n, l, exclude)
	if err != nil {
		return nil, err
	}
	w.relays, w.lists = relays, slices.Grow(w.lists[:0], n)
	for i := 0; i < n; i++ {
		w.lists = append(w.lists, relays[i*l:(i+1)*l])
	}
	return w.lists, nil
}

// exclusion returns the world's exclusion scratch holding the session's
// endpoints and then more.
func (s *Session) exclusion(more []netsim.NodeID) []netsim.NodeID {
	s.w.exclude = append(append(s.w.exclude[:0], s.self, s.responder), more...)
	return s.w.exclude
}

// release drops a path's initiator-side record, and with it the path's
// reverse traffic.
func (s *Session) release(p *onion.Path) {
	if p != nil {
		s.w.Nodes[s.self].Initiator.Forget(p)
	}
}

// Teardown releases the session's paths at the initiator (relay-side
// state ages out via the TTL of §4.3 — failed upstream nodes mean the
// initiator cannot reliably release remote state, which is exactly why
// the TTL exists). Timers still armed for it fire as no-ops.
func (s *Session) Teardown() {
	s.m.Teardown()
	for i, p := range s.paths {
		s.release(p)
		s.paths[i] = nil
	}
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Established reports whether the path set is currently standing.
func (s *Session) Established() bool { return s.established && !s.setDead }

// EstablishedAt returns when establishment succeeded.
func (s *Session) EstablishedAt() sim.Time { return s.establishAt }

// SetDeadAt returns when the path set died (zero if alive).
func (s *Session) SetDeadAt() sim.Time { return s.setDeadAt }

// AlivePaths returns the number of live path slots.
func (s *Session) AlivePaths() int { return s.m.Alive() }

// Establish runs construction attempts until MinPaths paths stand or
// MaxEstablishAttempts is exhausted, then fires OnEstablished.
func (s *Session) Establish() {
	if s.established || s.failed {
		return
	}
	s.attempt()
}

func (s *Session) attempt() {
	s.stats.EstablishAttempts++
	s.w.m.establishAttempts.Inc()
	s.resolved, s.stoodN = 0, 0
	lists, err := s.pick(s.params.K, s.exclusion(nil))
	if err != nil {
		s.concludeAttempt()
		return
	}
	initiator := s.w.Nodes[s.self].Initiator
	for i, relays := range lists {
		p, err := initiator.Construct(relays, s.responder, &s.stats.ConstructFlow, s.onPath)
		if err != nil {
			// Immediate failure (should not happen after SelectPaths
			// validation); count the slot as resolved.
			s.resolved++
			continue
		}
		s.pending[i] = p
		p.OnReverse = s.reverse // nil until openIO: no reverse traffic before a send
	}
	if s.resolved == s.params.K {
		// All constructions failed synchronously.
		s.concludeAttempt()
	}
}

// pathDone is the construction outcome of one of the session's paths.
func (s *Session) pathDone(p *onion.Path, ok bool) {
	if i := slices.Index(s.pending, p); i >= 0 {
		s.attemptDone(i, p, ok)
	} else {
		s.built(p, ok)
	}
}

// attemptDone is the construction outcome of the current attempt's
// path in slot i; the attempt concludes with the last of them.
func (s *Session) attemptDone(i int, p *onion.Path, ok bool) {
	s.resolved++
	if ok {
		s.stoodN++
		s.notePath(obs.PathBuilt, p, i, obs.ReasonNone, s.w.m.pathsBuilt)
	}
	if s.resolved == s.params.K {
		s.concludeAttempt()
	}
}

// concludeAttempt settles the current attempt (pending): the session is
// established with the paths that stood, or everything is released and
// another attempt, if any is left, runs next. A path of the attempt
// stood if its construction ended established.
func (s *Session) concludeAttempt() {
	if s.established || s.failed {
		return
	}
	if s.stoodN >= s.params.MinPaths() {
		s.established = true
		s.establishAt = s.w.Eng.Now()
		// Slots that failed construction already count as failed paths.
		for i, p := range s.pending {
			if p != nil && p.State == onion.PathEstablished {
				s.paths[i] = p
				s.m.PathUp(i, p.Relays)
			} else {
				s.release(p)
			}
		}
		clear(s.pending)
		if s.OnEstablished != nil {
			s.OnEstablished(true, s.stats.EstablishAttempts)
		}
		return
	}
	// Failed attempt: release everything and maybe retry.
	for _, p := range s.pending {
		s.release(p)
	}
	clear(s.pending)
	if s.stats.EstablishAttempts < s.params.MaxEstablishAttempts {
		s.w.Eng.Schedule(0, s.attempt)
		return
	}
	s.failed = true
	if s.OnEstablished != nil {
		s.OnEstablished(false, s.stats.EstablishAttempts)
	}
}

// SendMessage erasure-codes data and sends the segments over the live
// paths per the allocation policy. It returns the message ID.
func (s *Session) SendMessage(data []byte) (uint64, error) {
	return s.SendMessageTo(s.responder, data)
}

// SendMessageTo multiplexes a message to a different responder over the
// established path set (path reuse, §4.4): each terminal relay rebinds
// its cached stream to the destination named inside the payload onion,
// so no new path construction — and no asymmetric decryption at the
// relays — is needed.
func (s *Session) SendMessageTo(dest netsim.NodeID, data []byte) (uint64, error) {
	if !s.established {
		return 0, fmt.Errorf("core: session not established")
	}
	if dest == s.self {
		return 0, fmt.Errorf("core: cannot send to self")
	}
	s.openIO()
	var split []byte
	if n := len(s.spare); n > 0 {
		split, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	if coded := s.code.N() * s.code.SegmentSize(len(data)); cap(split) < coded {
		split = make([]byte, coded)
	}
	segs, err := s.code.SplitInto(s.segs[:0], data, split)
	if err != nil {
		return 0, err
	}
	s.segs = segs
	mid := s.w.Eng.RNG().Uint64()
	now := s.w.Eng.Now()
	s.sweep(now)
	var buf [session.Scratch]session.Output
	outs, err := s.m.Send(buf[:0], int64(now), mid, dest, segs, s.scores())
	if err != nil {
		s.spare = append(s.spare, split)
		return 0, err
	}
	s.splits[mid] = split
	s.sent[mid] = now
	s.stats.MessagesSent++
	s.w.m.messagesSent.Inc()
	s.run(outs)
	return mid, nil
}

// scores returns the per-slot stability scores the weighted allocation
// (§7) deals segments by, or nil for the even split of §4.7.
func (s *Session) scores() []float64 {
	if !s.params.Weighted {
		return nil
	}
	scores := make([]float64, len(s.paths))
	for i := range scores {
		scores[i] = s.pathStability(i)
	}
	return scores
}

// pathStability returns the minimum predictor q across a slot's relays.
func (s *Session) pathStability(slot int) float64 {
	qp, ok := s.provider.(membership.QProvider)
	if !ok {
		return 1
	}
	min := 1.0
	for _, relay := range s.m.Relays(slot) {
		if q := qp.Q(relay); q < min {
			min = q
		}
	}
	return min
}

// run carries out the machine's outputs in order. The order is part of
// the simulator's determinism: sends and constructions draw from the
// engine RNG and take engine sequence numbers as they happen.
func (s *Session) run(outs []session.Output) {
	initiator := s.w.Nodes[s.self].Initiator
	for _, o := range outs {
		switch o.Kind {
		case session.Transmit, session.Probe:
			// The machine encodes the segment or probe inside the onion that
			// carries it. A probe goes untagged to the path's own responder.
			p := s.paths[o.Slot]
			dest, tag := p.Responder, obs.Tag{}
			if o.Kind == session.Transmit {
				dest, tag = o.Dest, obs.Tag{ID: o.MID, Seg: o.Index, Slot: int32(o.Slot)}
			}
			encode := func(b []byte) []byte { return s.m.AppendPayload(b, o) }
			err := initiator.SendApp(p, dest, s.m.PayloadSize(o), encode, &s.stats.DataFlow, tag)
			if err == nil && o.Kind == session.Transmit {
				s.noteSegmentSent(o)
			}
		case session.Arm:
			if s.deadline == 0 {
				s.deadline = s.w.Eng.Register(s.onDeadline)
			}
			s.w.Eng.ScheduleTyped(sim.Time(o.At)-s.w.Eng.Now(), s.deadline, o.MID)
		case session.Build:
			s.build(o)
		case session.Broken:
			s.noteBroken(o)
		case session.Repaired:
			s.stats.PathsReplaced++
			s.notePath(obs.PathRepaired, s.paths[o.Slot], o.Slot, obs.ReasonNone, s.w.m.pathsReplaced)
		case session.Acked:
			s.stats.SegmentsAcked++
			s.w.m.segmentsAcked.Inc()
		case session.Forget:
			s.spare = append(s.spare, s.splits[o.MID])
			delete(s.splits, o.MID)
		}
	}
}

// onDeadline is the typed event a round's Arm schedules, with the round
// set's ID as its argument.
func (s *Session) onDeadline(mid uint64) {
	var buf [session.Scratch]session.Output
	s.run(s.m.Deadline(buf[:0], int64(s.w.Eng.Now()), mid))
}

// build constructs the replacement path a Build output asks for
// (§4.5 reconstruction), with its first segment riding the
// construction onion when there is one (§4.2's combined mode — no
// message delay waiting for a separate construction round trip). The
// old path stays recorded until the replacement stands.
func (s *Session) build(b session.Output) {
	// The exclusion set is the request's, not the present one: the pinned
	// traces have a slot's replacement chosen before the same deadline
	// condemns the next slot, whose relays it therefore still avoids.
	lists, err := s.pick(1, s.exclusion(b.Exclude))
	if err != nil {
		s.m.Abandon(b)
		return
	}
	relays := lists[0]
	initiator := s.w.Nodes[s.self].Initiator
	var p *onion.Path
	if b.First {
		tag := obs.Tag{ID: b.MID, Seg: b.Index, Slot: int32(b.Slot)}
		p, err = initiator.ConstructWithDataTagged(relays, s.responder, s.m.Payload(b), &s.stats.DataFlow, tag, s.onPath)
	} else {
		p, err = initiator.Construct(relays, s.responder, &s.stats.ConstructFlow, s.onPath)
	}
	if err != nil {
		s.m.Abandon(b)
		return
	}
	s.building[b.Slot] = p
	p.OnReverse = s.reverse
	if b.First {
		s.noteSegmentSent(b)
	}
}

// built is the construction outcome of a slot's replacement path.
func (s *Session) built(p *onion.Path, ok bool) {
	slot := slices.Index(s.building, p)
	s.building[slot] = nil
	if !ok {
		s.release(p)
		s.m.PathFailed(slot)
		return
	}
	s.release(s.paths[slot])
	s.paths[slot] = p
	var buf [1]session.Output
	s.run(s.m.PathBuilt(buf[:0], slot, p.Relays))
}

// noteSegmentSent records one coded data segment leaving the
// initiator, in the session stats, the registry, and the trace.
func (s *Session) noteSegmentSent(o session.Output) {
	s.stats.SegmentsSent++
	s.w.m.segmentsSent.Inc()
	if s.w.tracer != nil {
		s.w.tracer.Emit(obs.Event{
			Type: obs.SegmentSent, At: int64(s.w.Eng.Now()),
			Node: int(s.self), Peer: int(o.Dest), ID: o.MID,
			Seq: int64(o.Index), Slot: o.Slot, Hop: -1, Size: len(o.Data),
		})
	}
}

// notePath counts and traces one path lifecycle event of a slot.
func (s *Session) notePath(typ obs.Type, p *onion.Path, slot int, reason obs.Reason, c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
	if s.w.tracer != nil {
		var sid uint64
		if p != nil {
			sid = uint64(p.SID)
		}
		s.w.tracer.Emit(obs.Event{
			Type: typ, At: int64(s.w.Eng.Now()),
			Node: int(s.self), Peer: int(s.responder),
			ID: sid, Seq: int64(slot), Slot: slot, Hop: -1,
			Reason: reason,
		})
	}
}

// noteBroken records a slot's path being given up. A predicted
// replacement keeps the slot in use; a timeout (the trace names probe
// and data rounds alike, as it always has) takes it out, and without
// repair enough of those end the path set.
func (s *Session) noteBroken(o session.Output) {
	if o.Reason == session.Predicted {
		s.stats.PathsPredicted++
		s.notePath(obs.PathBroken, s.paths[o.Slot], o.Slot, obs.ReasonPredicted, nil)
		return
	}
	s.stats.PathsDied++
	s.notePath(obs.PathBroken, s.paths[o.Slot], o.Slot, obs.ReasonAckTimeout, s.w.m.pathsDied)
	if s.repair {
		return // self-healing mode replaces the path instead (§4.5 reconstruction)
	}
	if s.AlivePaths() < s.params.MinPaths() && !s.setDead {
		s.setDead = true
		s.setDeadAt = s.w.Eng.Now()
		if s.OnSetDead != nil {
			s.OnSetDead(s.setDeadAt)
		}
	}
}

// EnableRepair turns on §4.5 failure handling for long-lived sessions:
// every probeInterval the session probes each live path end to end
// (probes also refresh the §4.3 state TTLs); a path that misses its
// probe ack is torn down and reconstructed through fresh relays. With
// repair enabled the session never declares its path set dead — it
// heals instead — so OnSetDead does not fire.
func (s *Session) EnableRepair(probeInterval sim.Time) {
	if probeInterval <= 0 {
		probeInterval = 30 * sim.Second
	}
	s.repair = true
	s.m.EnableRepair()
	s.openIO()
	s.w.Eng.Every(probeInterval, probeInterval, func() {
		if !s.established {
			return
		}
		// Retry slots whose earlier replacement failed, then probe. Two
		// inputs, because the probe round's ID is drawn after the
		// retries' constructions drew theirs.
		var buf [session.Scratch]session.Output
		s.run(s.m.Repairs(buf[:0]))
		s.run(s.m.ProbeRound(buf[:0], int64(s.w.Eng.Now()), s.w.Eng.RNG().Uint64()))
	})
}

// EnablePrediction starts the §4.5 proactive failure predictor: every
// interval the session computes each live path's minimum relay q; paths
// below threshold are replaced with freshly constructed ones.
func (s *Session) EnablePrediction(threshold float64, interval sim.Time) {
	if interval <= 0 {
		interval = 30 * sim.Second
	}
	s.openIO()
	s.w.Eng.Every(interval, interval, func() {
		if !s.established || s.setDead {
			return
		}
		for i := range s.paths {
			if s.m.SlotAlive(i) && s.pathStability(i) < threshold {
				var buf [2]session.Output
				s.run(s.m.Replace(buf[:0], i))
			}
		}
	})
}

// handleReverse processes a decrypted reverse-path payload routed to
// this session by the world, and the pooled buffer it lies in (nil when
// none): an ack's goes back once the machine has taken the ack in, a
// segment's to the reassembler that stores it.
func (s *Session) handleReverse(plain []byte, buf *[]byte) {
	s.openIO()
	s.sweep(s.w.Eng.Now())
	msg, err := session.DecodeApp(plain)
	if err != nil {
		bufpool.Release(buf)
		return
	}
	switch msg.Kind {
	case session.KindSegAck:
		var outs [session.AckScratch]session.Output
		s.run(s.m.Ack(outs[:0], msg.Ack.MID, msg.Ack.Index))
		bufpool.Release(buf)
	case session.KindRespSeg:
		if _, ours := s.sent[msg.Seg.MID]; !ours {
			bufpool.Release(buf)
			return
		}
		if data, ok := reassemble(s.responses, s.w.Eng.Now(), msg.Seg, buf); ok {
			s.stats.ResponsesReceived++
			s.w.m.responsesReceived.Inc()
			if s.OnResponse != nil {
				s.OnResponse(msg.Seg.MID, data, s.w.Eng.Now())
			}
		}
	case session.KindInbound:
		if data, ok := reassemble(s.inbound, s.w.Eng.Now(), msg.Service.Segment, buf); ok && s.OnInbound != nil {
			s.OnInbound(msg.Service.Conv(), data, s.w.Eng.Now())
		}
	default:
		bufpool.Release(buf)
	}
}

// sweep forgets, once a horizon, the messages sent and the responses
// and inbound messages last heard of more than inboundTTL ago; the
// reassemblers give back the buffers of those never rebuilt.
func (s *Session) sweep(now sim.Time) {
	if now < s.sweepAt {
		return
	}
	for mid, at := range s.sent {
		if at+inboundTTL <= now {
			delete(s.sent, mid)
		}
	}
	s.responses.Sweep(int64(now))
	s.inbound.Sweep(int64(now))
	s.sweepAt = now + inboundTTL
}

// reassemble adds one segment, lying in the pooled buffer buf, and
// returns the message, in a buffer of its own, when it is the one that
// completes it.
func reassemble(r *session.Reassembler[struct{}], now sim.Time, seg session.Segment, buf *[]byte) ([]byte, bool) {
	switch v, _ := r.Add(int64(now), seg, buf); v {
	case session.Stored:
		return nil, false
	case session.Ready:
		data, _, _, ok := r.Reconstruct(seg.MID)
		return data, ok
	default:
		bufpool.Release(buf)
		return nil, false
	}
}
