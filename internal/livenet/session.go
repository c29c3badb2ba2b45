package livenet

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
	"resilientmix/internal/membership"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
)

// This file is SimEra over real sockets, as the TCP driver of the
// session machine (internal/session) and of its reassembler. The
// machine owns the k path slots, §4.7's allocation, the ack ledger,
// §4.5's probe rounds, condemnation, retransmission and repair
// requests, the in-flight bound and the cover-shed decision; the
// LiveSession feeds it reverse-path payloads, timer firings and
// construction outcomes under one mutex, and — after releasing it —
// turns its outputs into frames on live paths, time.AfterFunc timers,
// path constructions, Await verdicts, trace events and the node's
// metrics. The LiveCollector is the responder side.

// LiveDelivered is invoked when the collector reconstructs a message.
// data is valid only during the call: the collector reuses its buffer
// afterwards, so a callee that keeps the message copies it.
type LiveDelivered func(mid uint64, data []byte)

// collectorHorizon is how long the collector is sure to remember a
// message after its last segment: at least the span over which an
// initiator with default options can still retransmit it, AckTimeout ×
// (maxRetransmits+1).
const collectorHorizon = 30 * time.Second

// LiveCollector is the responder-side application: it acknowledges
// every segment, delivers a message once any m of its segments arrived,
// acknowledges liveness probes and counts-and-discards cover traffic.
// Install its Handle method as the node's OnData. Its memory is bounded
// by the arrival rate, not the run length: a message — delivered, so
// that late duplicates are recognised, or still short of m — is
// forgotten between one and two horizons after its last segment, by a
// sweep the first arrival of each horizon runs. It gives back every
// buffer it is done with: a delivery's frame at once unless the
// reassembler stored its segment (the reassembler gives that back once
// the message is rebuilt or forgotten), the rebuilt message's once
// LiveDelivered returns.
type LiveCollector struct {
	mu        sync.Mutex
	asm       *session.Reassembler[struct{}]
	sweepAt   time.Time
	now       func() time.Time // time.Now outside tests
	delivered LiveDelivered
}

// NewLiveCollector creates a collector delivering reconstructed
// messages to the callback.
func NewLiveCollector(delivered LiveDelivered) *LiveCollector {
	return &LiveCollector{
		asm:       session.NewReassembler[struct{}](int64(collectorHorizon)),
		now:       time.Now,
		delivered: delivered,
	}
}

// Handle is the node's OnData. It maintains the receiver-side registry
// counters (recv.segments, recv.dup_segments, recv.delivered) and emits
// a SegmentReconstructed trace event, so live runs reconcile with trace
// analytics exactly the way simulated runs do.
func (c *LiveCollector) Handle(h ReplyHandle, data []byte) {
	msg, err := session.DecodeApp(data)
	if err != nil {
		h.releaseFrame()
		return
	}
	switch msg.Kind {
	case session.KindProbe:
		h.node.m.recvProbes.Inc()
		h.ack(msg.Ack)
		h.releaseFrame()
		return
	case session.KindCover:
		h.node.m.recvCover.Inc()
		h.releaseFrame()
		return
	case session.KindSegment:
	default:
		h.releaseFrame()
		return
	}
	seg := msg.Seg
	c.mu.Lock()
	now := c.now()
	if !now.Before(c.sweepAt) {
		c.sweepLocked(now)
	}
	verdict, _ := c.asm.Add(now.UnixNano(), seg, h.frame)
	c.mu.Unlock()
	if verdict == session.Rejected {
		h.releaseFrame()
		return
	}
	// Ack before reconstructing — the initiator's failure detector keys
	// on this.
	h.ack(session.Ack{MID: seg.MID, Index: seg.Index})
	if verdict == session.Duplicate || verdict == session.Late {
		h.node.m.recvDupSegments.Inc()
		h.releaseFrame()
	} else {
		h.node.m.recvSegments.Inc()
	}
	if verdict != session.Ready {
		return
	}
	// The reassembler stores only segments as long as a message's first,
	// so this is no more than the bytes the m stored segments hold.
	buf := bufpool.Get(int(seg.Needed) * len(seg.Data))
	defer bufpool.Release(buf)
	c.mu.Lock()
	out, segments, _, ok := c.asm.ReconstructInto(seg.MID, *buf)
	c.mu.Unlock()
	if !ok {
		return
	}
	h.node.m.recvDelivered.Inc()
	h.node.emit(obs.Event{
		Type: obs.SegmentReconstructed, At: time.Now().UnixMicro(),
		Node: int(h.node.cfg.ID), Peer: -1, ID: seg.MID,
		Seq: int64(segments), Slot: -1, Hop: -1, Size: len(out),
	})
	if c.delivered != nil {
		c.delivered(seg.MID, out)
	}
}

// sweepLocked forgets the messages past their horizon; the reassembler
// gives back the frames of those that never had m segments. Callers
// hold c.mu.
func (c *LiveCollector) sweepLocked(now time.Time) {
	c.asm.Sweep(now.UnixNano())
	c.sweepAt = now.Add(collectorHorizon)
}

// ack acknowledges a segment or probe up the path it arrived on, the
// ack encoded where it is sealed. A send that fails is counted where it
// fails; the initiator's failure detector is what notices.
func (h ReplyHandle) ack(a session.Ack) {
	_ = h.replyApp(session.AckSize, func(b []byte) []byte { return a.AppendEncode(b, session.KindSegAck) })
}

// SessionOptions configures a LiveSession's resilience machinery.
type SessionOptions struct {
	// R is the replication factor; k (the number of relay lists) must be
	// a positive multiple of it, giving an m = k/r of n = k code.
	R int
	// AckTimeout is the §4.5 failure detector: a path whose segment or
	// probe goes unacknowledged this long is condemned. Zero selects 5s.
	AckTimeout time.Duration
	// Repair enables the resilience loop: liveness probing, dead-path
	// reconstruction through fresh relays, and segment retransmission
	// until m distinct acks confirm delivery.
	Repair bool
	// ProbeInterval is the per-path liveness probe cadence when Repair
	// is on. Zero selects 1s.
	ProbeInterval time.Duration
	// MaxInflight bounds unresolved outbound messages; Send rejects new
	// work beyond it (bounded queues, not unbounded buffering). Zero
	// selects 64.
	MaxInflight int
	// CoverInterval, when positive, emits cover traffic down a random
	// live path at that cadence. Cover is the first load shed when the
	// session is degraded or the in-flight queue is half full.
	CoverInterval time.Duration
	// CoverSize is the cover payload size. Zero selects 64 bytes.
	CoverSize int
}

// maxRetransmits bounds the retransmission rounds a message gets after
// its first when Repair is on; without it a message gets none.
const maxRetransmits = 5

func (o SessionOptions) withDefaults() SessionOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.CoverSize <= 0 {
		o.CoverSize = 64
	}
	return o
}

// LiveSession is an erasure-coded multipath session over live paths.
type LiveSession struct {
	node      *Node
	code      *erasure.Code
	opts      SessionOptions
	responder netsim.NodeID
	hops      int       // relays of the longest path: the most layers a segment gets
	start     time.Time // the machine's clock is the time since start

	ctx    context.Context
	cancel context.CancelFunc

	// paths holds the path standing (or last standing) in each slot;
	// outputs are transmitted outside mu, so the slots are atomic.
	paths []atomic.Pointer[Path]

	mu       sync.Mutex // serialises the machine's inputs; guards the rest
	m        *session.Machine
	waits    map[uint64]chan struct{} // unresolved messages, closed at the verdict
	verdicts map[uint64]error         // verdicts awaiting Await
	splits   map[uint64]split         // the buffer each message's segments lie in, until released
	degraded bool                     // mirrored into the node's degraded gauge
	rng      *mrand.Rand              // relay choice, cover path pick
	exclude  []netsim.NodeID          // choose's scratch
	probe    *time.Timer
	cover    *time.Timer

	// builds feeds the one goroutine a repairing session runs: path
	// constructions block. At most one Build per slot is outstanding, so
	// k slots of buffer never block the sender.
	builds    chan queuedBuild
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// split is the pooled buffer a message's coded segments lie in and who
// still reads it. The machine's Forget comes at the verdict, and the
// verdict can come on the reverse path while the round that Send (or a
// retransmitting deadline) started is still being written: writing
// counts those runs, done records the Forget, and whichever of them
// leaves the split done with nothing writing gives the buffer back.
type split struct {
	buf     *[]byte
	writing int32
	done    bool
}

// queuedBuild is a Build output queued for the session's goroutine,
// with the segment that rides it (First) already encoded: it can wait
// behind other constructions for seconds, past the Forget of its
// message.
type queuedBuild struct {
	session.Output
	payload []byte
}

// errMessageLost is the Await verdict when the retransmit budget runs
// out before m distinct acks arrive.
var errMessageLost = errors.New("livenet: message lost (retransmit budget exhausted)")

// NewLiveSessionOpts constructs k node-disjoint live paths through the
// given relay lists to the responder and wires reverse-path ack
// handling. relayLists must hold k disjoint lists; opts.R is the
// replication factor (k must be a multiple of it).
func (n *Node) NewLiveSessionOpts(relayLists [][]netsim.NodeID, responder netsim.NodeID, opts SessionOptions) (*LiveSession, error) {
	k := len(relayLists)
	r := opts.R
	if k < 1 || r < 1 || k%r != 0 {
		return nil, fmt.Errorf("livenet: k=%d must be a positive multiple of r=%d", k, r)
	}
	opts = opts.withDefaults()
	code, err := erasure.New(k/r, k)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &LiveSession{
		node:      n,
		code:      code,
		opts:      opts,
		responder: responder,
		start:     time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		paths:     make([]atomic.Pointer[Path], k),
		waits:     make(map[uint64]chan struct{}),
		verdicts:  make(map[uint64]error),
		splits:    make(map[uint64]split),
		rng:       mrand.New(mrand.NewSource(int64(newSID()))),
		builds:    make(chan queuedBuild, k),
	}
	cfg := session.Config{
		K: k, M: k / r, N: k,
		Responder:   responder,
		AckTimeout:  int64(opts.AckTimeout),
		MaxInflight: opts.MaxInflight,
	}
	if opts.Repair {
		cfg.MaxRetransmits = maxRetransmits
	}
	s.m = session.New(cfg)
	if opts.Repair {
		s.m.EnableRepair()
	}
	// The k constructions leave together, as core.Session's do, so
	// establishment is one path round trip (or one ConstructTimeout), not
	// k; the machine sees the outcomes once all are in, in slot order.
	launched := make([]struct {
		p   *Path
		err error
	}, k)
	var launches sync.WaitGroup
	for i, relays := range relayLists {
		s.hops = max(s.hops, len(relays))
		launches.Add(1)
		go func() {
			defer launches.Done()
			cctx, cancel := context.WithTimeout(ctx, n.cfg.ConstructTimeout)
			defer cancel()
			launched[i].p, launched[i].err = n.launch(cctx, relays, responder, nil, false, s.reverse)
		}()
	}
	launches.Wait()
	var firstErr error
	for i, l := range launched {
		if l.err != nil {
			if firstErr == nil {
				firstErr = l.err
			}
			// A slot that never stood is still a slot of this width:
			// its replacement has as many relays.
			s.m.PathDown(i, append([]netsim.NodeID(nil), relayLists[i]...))
			continue
		}
		s.paths[i].Store(l.p)
		s.m.PathUp(i, l.p.Relays)
	}
	if alive := s.AlivePaths(); alive < k/r {
		s.Teardown()
		return nil, fmt.Errorf("livenet: only %d/%d paths constructed (need %d): %w", alive, k, k/r, firstErr)
	}
	s.mu.Lock()
	s.syncDegradedLocked()
	var buf [session.Scratch]session.Output
	outs := buf[:0]
	if opts.Repair {
		s.wg.Add(1)
		go s.buildLoop()
		outs = s.m.Repairs(outs) // slots that failed construction
		s.probe = time.AfterFunc(opts.ProbeInterval, s.probeTick)
	}
	if opts.CoverInterval > 0 {
		s.cover = time.AfterFunc(opts.CoverInterval, s.coverTick)
	}
	s.mu.Unlock()
	s.run(outs)
	return s, nil
}

// now is the machine's clock.
func (s *LiveSession) now() int64 { return int64(time.Since(s.start)) }

// AlivePaths returns the number of live path slots.
func (s *LiveSession) AlivePaths() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Alive()
}

// Degraded reports whether the session is running below its full path
// width.
func (s *LiveSession) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// syncDegradedLocked mirrors the machine's degraded flag into the
// node-wide degraded-session count and gauge. Callers hold s.mu.
func (s *LiveSession) syncDegradedLocked() {
	deg := s.m.Degraded()
	if deg == s.degraded {
		return
	}
	s.degraded = deg
	delta := int64(1)
	if !deg {
		delta = -1
	}
	s.node.m.degraded.Set(float64(s.node.degraded.Add(delta)))
}

// reverse is every path's reply callback: a segment or probe ack goes
// into the machine's ledger.
func (s *LiveSession) reverse(body []byte) {
	msg, err := session.DecodeApp(body)
	if err != nil || msg.Kind != session.KindSegAck {
		return
	}
	var buf [session.AckScratch]session.Output
	s.mu.Lock()
	outs := s.m.Ack(buf[:0], msg.Ack.MID, msg.Ack.Index)
	s.mu.Unlock()
	s.run(outs)
}

// deadline is an armed round timer firing. After Teardown the machine
// knows no round, so a late timer does nothing. The segments of a
// message it may retransmit stay pinned while the new round is written.
func (s *LiveSession) deadline(mid uint64) {
	var buf [session.Scratch]session.Output
	s.mu.Lock()
	outs := s.m.Deadline(buf[:0], s.now(), mid)
	sp, pinned := s.splits[mid]
	if pinned {
		sp.writing++
		s.splits[mid] = sp
	}
	s.syncDegradedLocked()
	s.mu.Unlock()
	s.run(outs)
	if pinned {
		s.settle(mid, false)
	}
}

// probeTick asks again for every missing replacement and sends one
// probe round down the live paths (§4.5's probing failure detector on
// real sockets). The next tick is armed before this one's frames go
// out, so a first hop that is slow to refuse does not stretch the
// cadence.
func (s *LiveSession) probeTick() {
	var buf [session.Scratch]session.Output
	s.mu.Lock()
	outs := s.m.ProbeRound(s.m.Repairs(buf[:0]), s.now(), newSID())
	if s.ctx.Err() == nil {
		s.probe.Reset(s.opts.ProbeInterval)
	}
	s.mu.Unlock()
	s.run(outs)
}

// coverTick emits the cover message due now, or sheds it.
func (s *LiveSession) coverTick() {
	var buf [1]session.Output
	s.mu.Lock()
	outs := s.m.CoverTick(buf[:0], s.rng.Uint64())
	if s.ctx.Err() == nil {
		s.cover.Reset(s.opts.CoverInterval)
	}
	s.mu.Unlock()
	s.run(outs)
}

// Send erasure-codes data over the live paths (one segment per path,
// §4.7's even allocation with s=1) and arms the §4.5 ack timeout: paths
// whose segment is not acknowledged in time are marked dead, and — when
// repair is enabled — unacknowledged segments are retransmitted over
// surviving or repaired paths until m distinct acks confirm delivery.
// It returns the message id; Await blocks on the verdict. A message too
// large for its segments to fit a frame is refused with
// ErrFrameTooLarge before anything is sent.
func (s *LiveSession) Send(data []byte) (uint64, error) {
	// A segment no frame can carry would be dropped unread by every
	// first relay, and the silence would condemn k healthy paths.
	seg := session.SegmentOverhead + s.code.SegmentSize(len(data))
	if size := frameHeader + onion.PayloadOnionSize(s.node.cfg.Suite, s.hops, seg); size > maxFrameSize {
		return 0, fmt.Errorf("%w: a %d-byte message makes %d-byte segments, %d-byte frames of at most %d",
			ErrFrameTooLarge, len(data), seg, size, maxFrameSize)
	}
	sb := bufpool.Get(s.code.N() * s.code.SegmentSize(len(data)))
	// The machine copies the descriptors: they are scratch, on the stack
	// for up to eight paths.
	var descs [8]erasure.Segment
	segs, err := s.code.SplitInto(descs[:0], data, *sb)
	if err != nil {
		bufpool.Release(sb)
		return 0, err
	}
	mid := newSID()
	var buf [session.Scratch]session.Output
	s.mu.Lock()
	outs, err := s.m.Send(buf[:0], s.now(), mid, s.responder, segs, nil)
	if err == nil {
		s.waits[mid] = make(chan struct{})
		s.splits[mid] = split{buf: sb, writing: 1} // pinned until the round is written
	}
	s.mu.Unlock()
	if err != nil {
		bufpool.Release(sb)
		if errors.Is(err, session.ErrFull) {
			s.node.m.sendRejected.Inc()
		}
		return 0, err
	}
	s.node.m.messagesSent.Inc()
	s.run(outs)
	s.settle(mid, false)
	return mid, nil
}

// settle ends one run's writing from mid's segments or, with forget,
// records the machine's Forget of them. The call that leaves the split
// done with nothing writing gives its buffer back.
func (s *LiveSession) settle(mid uint64, forget bool) {
	s.mu.Lock()
	sp, ok := s.splits[mid]
	if !ok {
		s.mu.Unlock()
		return
	}
	if forget {
		sp.done = true
	} else {
		sp.writing--
	}
	free := sp.done && sp.writing == 0
	if free {
		delete(s.splits, mid)
	} else {
		s.splits[mid] = sp
	}
	s.mu.Unlock()
	if free {
		bufpool.Release(sp.buf)
	}
}

// run carries out the machine's outputs. Callers have released s.mu: a
// frame can block in a dial, and the acks of a round's first segments
// may arrive — and resolve the message — while its last is being
// written (which is why the split stays pinned until run returns).
func (s *LiveSession) run(outs []session.Output) {
	var buf [4]session.Output
	verdicts := buf[:0]
	for _, o := range outs {
		switch o.Kind {
		case session.Transmit:
			s.transmit(o)
			s.noteSegmentSent(o)
		case session.Probe:
			s.node.m.probes.Inc()
			s.transmit(o)
		case session.Cover:
			pad := make([]byte, s.opts.CoverSize)
			rand.Read(pad)
			s.paths[o.Slot].Load().Send(session.EncodeCover(pad))
			s.node.m.coverSent.Inc()
		case session.CoverShed:
			s.node.m.coverShed.Inc()
		case session.Arm:
			// A round's Arm follows its Transmits, so the timeout counts
			// from when the round's last frame was written, not from At:
			// a first hop that is slow to refuse its frame must not eat
			// the other paths' time to acknowledge theirs.
			mid := o.MID
			time.AfterFunc(s.opts.AckTimeout, func() { s.deadline(mid) })
		case session.Build:
			b := queuedBuild{Output: o}
			if o.First {
				b.payload = s.m.Payload(o)
			}
			s.builds <- b
		case session.Broken:
			s.node.m.pathsDead.Inc()
			reason := obs.ReasonAckTimeout
			if o.Reason == session.ProbeTimeout {
				reason = obs.ReasonProbeTimeout
				s.node.m.probeTimeouts.Inc()
			}
			s.notePath(obs.PathBroken, o.Slot, reason)
		case session.Repaired:
			s.node.m.repaired.Inc()
			s.notePath(obs.PathRepaired, o.Slot, obs.ReasonNone)
		case session.Acked:
			if !o.OfProbe {
				s.node.m.segmentsAcked.Inc()
			}
		case session.Retransmit:
			s.node.m.retransmits.Inc()
		case session.Resolved:
			verdicts = append(verdicts, o)
		case session.Forget:
			s.settle(o.MID, true)
		}
	}
	// Verdicts wake their Awaits last: a message's Forget follows its
	// Resolved in the same outputs, and an Await woken first could split
	// its next message before this one's buffer is back (a fresh Split
	// buffer for the next message, now and then, on two CPUs).
	for _, o := range verdicts {
		s.resolve(o.MID, o.Delivered)
	}
}

// transmit sends a Transmit's segment or a Probe's probe down its slot,
// encoded by the machine straight into the onion that carries it.
func (s *LiveSession) transmit(o session.Output) {
	p := s.paths[o.Slot].Load()
	dest := p.Responder
	if o.Kind == session.Transmit {
		dest = o.Dest
	}
	p.sendApp(dest, s.m.PayloadSize(o), func(b []byte) []byte { return s.m.AppendPayload(b, o) })
}

func (s *LiveSession) noteSegmentSent(o session.Output) {
	s.node.m.segmentsSent.Inc()
	s.node.emit(obs.Event{
		Type: obs.SegmentSent, At: time.Now().UnixMicro(),
		Node: int(s.node.cfg.ID), Peer: int(o.Dest), ID: o.MID,
		Seq: int64(o.Index), Slot: o.Slot, Hop: -1, Size: len(o.Data),
	})
}

func (s *LiveSession) notePath(typ obs.Type, slot int, reason obs.Reason) {
	var sid uint64
	if p := s.paths[slot].Load(); p != nil {
		sid = p.SID
	}
	s.node.emit(obs.Event{
		Type: typ, At: time.Now().UnixMicro(),
		Node: int(s.node.cfg.ID), Peer: int(s.responder),
		ID: sid, Slot: slot, Hop: -1, Reason: reason,
	})
}

// resolve records a message's verdict and wakes its Await.
func (s *LiveSession) resolve(mid uint64, delivered bool) {
	var err error
	if delivered {
		s.node.m.messagesDelivered.Inc()
	} else {
		err = errMessageLost
		s.node.m.messagesLost.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done, ok := s.waits[mid]
	if !ok {
		return
	}
	delete(s.waits, mid)
	// Bound the unread-verdict map: callers that never Await must not
	// leak memory.
	if len(s.verdicts) >= 4096 {
		for k := range s.verdicts {
			delete(s.verdicts, k)
			break
		}
	}
	s.verdicts[mid] = err
	close(done)
}

// Await blocks until the message's verdict is in: nil once m distinct
// acks confirmed delivery, errMessageLost when the retransmit budget
// ran out, or the context error.
func (s *LiveSession) Await(ctx context.Context, mid uint64) error {
	for {
		s.mu.Lock()
		if err, ok := s.verdicts[mid]; ok {
			delete(s.verdicts, mid)
			s.mu.Unlock()
			return err
		}
		done, ok := s.waits[mid]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("livenet: unknown message %d", mid)
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.ctx.Done():
			return errors.New("livenet: session torn down")
		}
	}
}

// condemnedLast is the live membership view the mix choice of §4.9 runs
// over: every roster peer, with liveness predictor 0 for the relays of a
// slot this session has condemned and 1 for the rest — so the biased
// strategy takes fresh relays first and falls back on a dead path's
// relays only when the roster is too small for strict freshness. Callers
// hold s.mu.
type condemnedLast struct{ s *LiveSession }

func (v condemnedLast) Candidates(self netsim.NodeID) []membership.Candidate {
	suspect := make(map[netsim.NodeID]bool)
	for i := range v.s.paths {
		if !v.s.m.SlotAlive(i) {
			for _, r := range v.s.m.Relays(i) {
				suspect[r] = true
			}
		}
	}
	size := v.s.node.roster().Size()
	cands := make([]membership.Candidate, 0, size)
	for id := netsim.NodeID(0); int(id) < size; id++ {
		if id == self {
			continue
		}
		c := membership.Candidate{ID: id, Q: 1}
		if suspect[id] {
			c.Q = 0
		}
		cands = append(cands, c)
	}
	return cands
}

// choose picks the relays of slot's replacement path, disjoint from
// every path standing now — not when the slot was condemned: other
// slots may have been rebuilt since, through relays no earlier
// exclusion set could name.
func (s *LiveSession) choose(slot int) ([]netsim.NodeID, error) {
	self := s.node.cfg.ID
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exclude = append(s.m.AppendInUse(s.exclude[:0], slot), self, s.responder)
	return mixchoice.AppendPaths(nil, s.rng, mixchoice.Biased, condemnedLast{s}.Candidates(self),
		1, len(s.m.Relays(slot)), s.exclude)
}

// buildLoop is the session's one goroutine: it constructs the
// replacement paths the machine asks for, one at a time — unlike the k
// paths of establishment, whose relays the caller chose together. Two
// concurrent choose calls would each exclude the paths standing now but
// not the other's pick, and the session's paths must stay
// node-disjoint.
func (s *LiveSession) buildLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case b := <-s.builds:
			s.build(b)
		}
	}
}

// build makes one attempt at a replacement path (§4.5's path
// replacement) through freshly chosen relays, the slot's segment riding
// its construction onion when the machine sent one along (§4.2). The
// condemned path keeps receiving until its replacement stands. A failed
// attempt is not tried again here: the slot stays down until the next
// probe tick's Repairs asks for it again, as in the simulator.
func (s *LiveSession) build(b queuedBuild) {
	var built *Path
	relays, err := s.choose(b.Slot)
	if err == nil {
		ctx, cancel := context.WithTimeout(s.ctx, s.node.cfg.ConstructTimeout)
		if b.First {
			s.noteSegmentSent(b.Output)
		}
		built, err = s.node.launch(ctx, relays, s.responder, b.payload, b.First, s.reverse)
		cancel()
	}
	var buf [1]session.Output
	s.mu.Lock()
	if err != nil {
		s.m.PathFailed(b.Slot)
		s.mu.Unlock()
		// Meanwhile a retransmit may still get through over surviving
		// paths.
		s.node.m.repairFailed.Inc()
		return
	}
	old := s.paths[b.Slot].Swap(built)
	outs := s.m.PathBuilt(buf[:0], b.Slot, built.Relays)
	s.syncDegradedLocked()
	s.mu.Unlock()
	if old != nil {
		old.Teardown()
	}
	s.run(outs)
}

// Teardown ends the session: timers still armed fire as no-ops, the
// build goroutine exits, and all paths are forgotten locally.
func (s *LiveSession) Teardown() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.cancel()
		s.m.Teardown()
		s.syncDegradedLocked()
		if s.probe != nil {
			s.probe.Stop()
		}
		if s.cover != nil {
			s.cover.Stop()
		}
		s.mu.Unlock()
		s.wg.Wait()
		for i := range s.paths {
			if p := s.paths[i].Load(); p != nil {
				p.Teardown()
			}
		}
	})
}
