package livenet

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"

	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/retrypolicy"
	"resilientmix/internal/wire"
)

// This file is SimEra over real sockets: a LiveSession owns k live onion
// paths to one responder, erasure-codes each message over them (§4.7's
// even allocation), collects end-to-end acknowledgments, and marks paths
// dead on ack timeout (§4.5). The LiveCollector is the responder side:
// it reassembles messages from any m segments and acks each one.
//
// With SessionOptions.Repair enabled the session becomes the paper's
// full failure-resilient loop on a real network: a probe/echo liveness
// detector condemns silent paths, a repair worker tears them down and
// reconstructs replacements through fresh relays (with jittered
// exponential backoff on path setup), unacknowledged segments are
// retransmitted until m distinct acks confirm delivery, and when the
// session runs below its full path width it reports itself degraded —
// shedding cover traffic first — so operators see graceful degradation
// instead of silent loss.

// Application-layer kinds inside live payloads.
const (
	liveKindSegment byte = 1
	liveKindAck     byte = 2
	// liveKindProbe / liveKindProbeAck are the §4.5 liveness probes over
	// real sockets: the initiator sends a nonce down the path; the
	// responder echoes it back up the reverse path. A missed echo within
	// the ack timeout condemns the path.
	liveKindProbe    byte = 3
	liveKindProbeAck byte = 4
	// liveKindCover is sheddable cover traffic: random padding the
	// responder counts and discards. Under degradation it is the first
	// load shed.
	liveKindCover byte = 5
)

type liveSegment struct {
	mid    uint64
	index  int32
	total  int32
	needed int32
	data   []byte
}

func (s liveSegment) encode() []byte {
	w := wire.NewWriter()
	w.Byte(liveKindSegment)
	w.Uint64(s.mid)
	w.Int32(s.index)
	w.Int32(s.total)
	w.Int32(s.needed)
	w.Bytes32(s.data)
	return w.Bytes()
}

type liveAck struct {
	mid   uint64
	index int32
}

func (a liveAck) encode() []byte {
	w := wire.NewWriter()
	w.Byte(liveKindAck)
	w.Uint64(a.mid)
	w.Int32(a.index)
	return w.Bytes()
}

// encodeProbe encodes a probe or probe-ack with its nonce.
func encodeProbe(kind byte, nonce uint64) []byte {
	w := wire.NewWriter()
	w.Byte(kind)
	w.Uint64(nonce)
	return w.Bytes()
}

// encodeCover encodes a cover payload of random padding.
func encodeCover(pad []byte) []byte {
	w := wire.NewWriter()
	w.Byte(liveKindCover)
	w.Bytes32(pad)
	return w.Bytes()
}

func decodeLive(b []byte) (kind byte, seg liveSegment, ack liveAck, nonce uint64, err error) {
	rd := wire.NewReader(b)
	kind = rd.Byte()
	switch kind {
	case liveKindSegment:
		seg = liveSegment{
			mid:    rd.Uint64(),
			index:  rd.Int32(),
			total:  rd.Int32(),
			needed: rd.Int32(),
		}
		seg.data = rd.Bytes32() // aliases b, which the caller owns
	case liveKindAck:
		ack = liveAck{mid: rd.Uint64(), index: rd.Int32()}
	case liveKindProbe, liveKindProbeAck:
		nonce = rd.Uint64()
	case liveKindCover:
		rd.Bytes32()
	default:
		return 0, seg, ack, 0, fmt.Errorf("livenet: unknown app kind %d", kind)
	}
	if e := rd.Done(); e != nil {
		return 0, seg, ack, 0, e
	}
	return kind, seg, ack, nonce, nil
}

// LiveDelivered is invoked when the collector reconstructs a message.
type LiveDelivered func(mid uint64, data []byte)

// collectorHorizon is how long the collector is sure to remember a
// message: at least the span over which an initiator with default
// options can still retransmit it, AckTimeout × (MaxRetransmits+1).
const collectorHorizon = 30 * time.Second

// collectorGen is one generation of collector memory.
type collectorGen struct {
	pending map[uint64]map[int32]erasure.Segment
	done    map[uint64]bool
}

func newCollectorGen() collectorGen {
	return collectorGen{
		pending: make(map[uint64]map[int32]erasure.Segment),
		done:    make(map[uint64]bool),
	}
}

// LiveCollector is the responder-side reassembler. Install its Handle
// method as the node's OnData. Its memory is bounded by the arrival
// rate, not the run length: message ids live in two generations, the
// older of which is dropped on the first segment to arrive a horizon
// after the last rotation. A delivered id suppresses duplicates — and a
// message short of m segments keeps them — for at least one horizon
// after its last segment, and is forgotten at the second rotation.
type LiveCollector struct {
	mu        sync.Mutex
	cur, prev collectorGen
	rotateAt  time.Time
	now       func() time.Time // time.Now outside tests
	delivered LiveDelivered
}

// NewLiveCollector creates a collector delivering reconstructed
// messages to the callback.
func NewLiveCollector(delivered LiveDelivered) *LiveCollector {
	return &LiveCollector{
		cur:       newCollectorGen(), // prev starts empty: nil maps read fine
		now:       time.Now,
		delivered: delivered,
	}
}

// rotateLocked retires the older generation once a horizon has passed
// since the last rotation. Callers hold c.mu.
func (c *LiveCollector) rotateLocked() {
	now := c.now()
	if now.Before(c.rotateAt) {
		return
	}
	c.prev, c.cur = c.cur, newCollectorGen()
	c.rotateAt = now.Add(collectorHorizon)
}

// Handle is the node's OnData: it acks every segment and reconstructs
// once m distinct segments of a message arrived; it echoes liveness
// probes and counts-and-discards cover traffic. When the handle is
// bound to a live node it also maintains the receiver-side registry
// counters (recv.segments, recv.dup_segments, recv.delivered) and
// emits a SegmentReconstructed trace event, so live runs reconcile
// with trace analytics exactly the way simulated runs do.
func (c *LiveCollector) Handle(h ReplyHandle, data []byte) {
	kind, seg, _, nonce, err := decodeLive(data)
	if err != nil {
		return
	}
	switch kind {
	case liveKindProbe:
		// Echo the nonce back up the reverse path — the initiator's
		// liveness detector keys on the round trip.
		if h.node != nil {
			h.node.m.recvProbes.Inc()
		}
		h.Reply(encodeProbe(liveKindProbeAck, nonce))
		return
	case liveKindCover:
		if h.node != nil {
			h.node.m.recvCover.Inc()
		}
		return
	case liveKindSegment:
	default:
		return
	}
	if seg.needed < 1 || seg.total < seg.needed || seg.index < 0 || seg.index >= seg.total ||
		seg.total > int32(erasure.MaxSegments) {
		return
	}
	// Ack first — the initiator's failure detector keys on this.
	h.Reply(liveAck{mid: seg.mid, index: seg.index}.encode())

	c.mu.Lock()
	c.rotateLocked()
	if c.cur.done[seg.mid] || c.prev.done[seg.mid] {
		c.mu.Unlock()
		if h.node != nil {
			h.node.m.recvDupSegments.Inc()
		}
		return
	}
	segs := c.cur.pending[seg.mid]
	if segs == nil {
		// A message still arriving moves to the current generation.
		if segs = c.prev.pending[seg.mid]; segs != nil {
			delete(c.prev.pending, seg.mid)
		} else {
			segs = make(map[int32]erasure.Segment)
		}
		c.cur.pending[seg.mid] = segs
	}
	dup := false
	if _, dup = segs[seg.index]; !dup {
		segs[seg.index] = erasure.Segment{Index: int(seg.index), Data: seg.data}
	}
	ready := int32(len(segs)) >= seg.needed
	var batch []erasure.Segment
	if ready {
		c.cur.done[seg.mid] = true
		delete(c.cur.pending, seg.mid)
		for _, s := range segs {
			batch = append(batch, s)
		}
	}
	c.mu.Unlock()
	if h.node != nil {
		if dup {
			h.node.m.recvDupSegments.Inc()
		} else {
			h.node.m.recvSegments.Inc()
		}
	}
	if !ready {
		return
	}
	code, err := erasure.New(int(seg.needed), int(seg.total))
	if err != nil {
		return
	}
	msg, err := code.Reconstruct(batch)
	if err != nil {
		return
	}
	if h.node != nil {
		h.node.m.recvDelivered.Inc()
		h.node.emit(obs.Event{
			Type: obs.SegmentReconstructed, At: time.Now().UnixMicro(),
			Node: int(h.node.cfg.ID), Peer: -1, ID: seg.mid,
			Seq: int64(len(batch)), Slot: -1, Hop: -1, Size: len(msg),
		})
	}
	if c.delivered != nil {
		c.delivered(seg.mid, msg)
	}
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
	// MaxRetransmits bounds the retransmission rounds per message after
	// the initial send. Zero selects 5 when Repair is on and none
	// otherwise; negative means none.
	MaxRetransmits int
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
	// ConstructRetry governs path-reconstruction retries during repair
	// (jittered exponential backoff, §4.5). The zero value selects 3
	// attempts with 200ms backoff, a 2s cap and 50% jitter.
	ConstructRetry retrypolicy.Policy
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxRetransmits == 0 && o.Repair {
		o.MaxRetransmits = 5
	}
	if o.MaxRetransmits < 0 {
		o.MaxRetransmits = 0
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.CoverSize <= 0 {
		o.CoverSize = 64
	}
	if o.ConstructRetry.Attempts == 0 {
		o.ConstructRetry = retrypolicy.Policy{
			Attempts:   3,
			Backoff:    200 * time.Millisecond,
			BackoffCap: 2 * time.Second,
			Jitter:     0.5,
		}
	}
	return o
}

// pendingMsg tracks one outbound message until m distinct acks confirm
// it (delivered) or the retransmit budget runs out (lost).
type pendingMsg struct {
	segs   []erasure.Segment
	rounds int
	done   chan struct{}
}

// roundJob records which slot carried which segment in one send round,
// for the round's failure detector.
type roundJob struct {
	slot int
	p    *Path
	idx  int32
}

// LiveSession is an erasure-coded multipath session over live paths.
type LiveSession struct {
	node      *Node
	code      *erasure.Code
	k, r      int
	opts      SessionOptions
	responder netsim.NodeID

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	paths    []*Path
	alive    []bool
	relays   [][]netsim.NodeID // current relay assignment per slot
	acked    map[uint64]map[int32]bool
	pending  map[uint64]*pendingMsg
	resolved map[uint64]error // terminal verdicts awaiting Await
	probes   map[uint64]roundJob
	degraded bool
	rng      *mrand.Rand

	repairKick chan struct{}
	quit       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// errMessageLost is the Await verdict when the retransmit budget runs
// out before m distinct acks arrive.
var errMessageLost = errors.New("livenet: message lost (retransmit budget exhausted)")

// NewLiveSession constructs k node-disjoint live paths through the given
// relay lists to the responder and wires reverse-path ack handling.
// relayLists must hold k disjoint lists; r is the replication factor
// (k must be a multiple of r). Repair is off — this is the legacy
// fire-and-forget session; use NewLiveSessionOpts for the resilient one.
func (n *Node) NewLiveSession(relayLists [][]netsim.NodeID, responder netsim.NodeID, r int, ackTimeout time.Duration) (*LiveSession, error) {
	return n.NewLiveSessionOpts(relayLists, responder, SessionOptions{R: r, AckTimeout: ackTimeout})
}

// NewLiveSessionOpts constructs a session with explicit options.
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
		node:       n,
		code:       code,
		k:          k,
		r:          r,
		opts:       opts,
		responder:  responder,
		ctx:        ctx,
		cancel:     cancel,
		alive:      make([]bool, k),
		acked:      make(map[uint64]map[int32]bool),
		pending:    make(map[uint64]*pendingMsg),
		resolved:   make(map[uint64]error),
		probes:     make(map[uint64]roundJob),
		rng:        mrand.New(mrand.NewSource(int64(newSID()))),
		repairKick: make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	var firstErr error
	for i, relays := range relayLists {
		s.relays = append(s.relays, append([]netsim.NodeID(nil), relays...))
		p, err := n.Construct(relays, responder)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			s.paths = append(s.paths, nil)
			continue
		}
		s.paths = append(s.paths, p)
		s.alive[i] = true
		s.wg.Add(1)
		go s.ackLoop(p)
	}
	if s.AlivePaths() < k/r {
		s.Teardown()
		return nil, fmt.Errorf("livenet: only %d/%d paths constructed (need %d): %w",
			s.AlivePaths(), k, k/r, firstErr)
	}
	s.mu.Lock()
	s.syncDegradedLocked()
	s.mu.Unlock()
	if opts.Repair {
		s.wg.Add(2)
		go s.probeLoop()
		go s.repairLoop()
		if s.AlivePaths() < k {
			s.kickRepair()
		}
	}
	if opts.CoverInterval > 0 {
		s.wg.Add(1)
		go s.coverLoop()
	}
	return s, nil
}

// AlivePaths returns the number of live path slots.
func (s *LiveSession) AlivePaths() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// Degraded reports whether the session is running below its full path
// width.
func (s *LiveSession) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// syncDegradedLocked recomputes the degraded flag and maintains the
// node-wide degraded-session count and gauge. Callers hold s.mu.
func (s *LiveSession) syncDegradedLocked() {
	alive := 0
	for _, a := range s.alive {
		if a {
			alive++
		}
	}
	deg := alive < s.k
	if deg == s.degraded {
		return
	}
	s.degraded = deg
	delta := int64(1)
	if !deg {
		delta = -1
	}
	total := s.node.degraded.Add(delta)
	s.node.m.degraded.Set(float64(total))
}

// markDeadLocked condemns a path slot: §4.5's detector verdict.
// Callers hold s.mu; the repair worker is kicked if enabled.
func (s *LiveSession) markDeadLocked(slot int, p *Path, reason obs.Reason) {
	if !s.alive[slot] || s.paths[slot] != p {
		return // already condemned or already repaired
	}
	s.alive[slot] = false
	s.syncDegradedLocked()
	s.node.m.pathsDead.Inc()
	s.node.emit(obs.Event{
		Type: obs.PathBroken, At: time.Now().UnixMicro(),
		Node: int(s.node.cfg.ID), Peer: int(s.responder),
		ID: p.SID, Slot: slot, Hop: -1,
		Reason: reason,
	})
	if s.opts.Repair {
		s.kickRepair()
	}
}

// kickRepair nudges the repair worker (non-blocking).
func (s *LiveSession) kickRepair() {
	select {
	case s.repairKick <- struct{}{}:
	default:
	}
}

// ackLoop consumes a path's reverse traffic, recording segment acks
// and probe echoes, until the session or the path is torn down. A
// message with m distinct acks resolves as delivered immediately.
func (s *LiveSession) ackLoop(p *Path) {
	defer s.wg.Done()
	for {
		var body []byte
		select {
		case body = <-p.replies:
		case <-p.gone:
			return
		case <-s.quit:
			return
		}
		kind, _, ack, nonce, err := decodeLive(body)
		if err != nil {
			continue
		}
		switch kind {
		case liveKindAck:
			s.mu.Lock()
			if m := s.acked[ack.mid]; m != nil && !m[ack.index] {
				m[ack.index] = true
				s.node.m.segmentsAcked.Inc()
				if len(m) >= s.code.M() {
					s.resolveLocked(ack.mid, nil)
				}
			}
			s.mu.Unlock()
		case liveKindProbeAck:
			s.mu.Lock()
			delete(s.probes, nonce)
			s.mu.Unlock()
		}
	}
}

// resolveLocked moves a message to its terminal verdict. Callers hold
// s.mu.
func (s *LiveSession) resolveLocked(mid uint64, err error) {
	pm, ok := s.pending[mid]
	if !ok {
		return
	}
	delete(s.pending, mid)
	// s.acked[mid] stays until the round timer's dead-slot sweep runs —
	// a message delivered over the survivors must not exempt the slots
	// that never acked from §4.5's verdict.
	// Bound the unread-verdict map: callers that never Await must not
	// leak memory.
	if len(s.resolved) >= 4096 {
		for k := range s.resolved {
			delete(s.resolved, k)
			break
		}
	}
	s.resolved[mid] = err
	if err == nil {
		s.node.m.messagesDelivered.Inc()
	} else {
		s.node.m.messagesLost.Inc()
	}
	close(pm.done)
}

// Send erasure-codes data over the live paths (one segment per path,
// §4.7's even allocation with s=1) and arms the §4.5 ack timeout: paths
// whose segment is not acknowledged in time are marked dead, and — when
// repair is enabled — unacknowledged segments are retransmitted over
// surviving or repaired paths until m distinct acks confirm delivery.
// It returns the message id; Await blocks on the verdict.
func (s *LiveSession) Send(data []byte) (uint64, error) {
	s.mu.Lock()
	if len(s.pending) >= s.opts.MaxInflight {
		s.mu.Unlock()
		s.node.m.sendRejected.Inc()
		return 0, errors.New("livenet: in-flight queue full")
	}
	s.mu.Unlock()
	segs, err := s.code.Split(data)
	if err != nil {
		return 0, err
	}
	var midBuf [8]byte
	if _, err := rand.Read(midBuf[:]); err != nil {
		return 0, err
	}
	mid := binary.BigEndian.Uint64(midBuf[:])
	pm := &pendingMsg{segs: segs, done: make(chan struct{})}

	s.mu.Lock()
	s.acked[mid] = make(map[int32]bool)
	s.pending[mid] = pm
	s.mu.Unlock()

	// Initial round: segment i rides path slot i (even allocation).
	var idxs []int32
	s.mu.Lock()
	for i, p := range s.paths {
		if p != nil && s.alive[i] {
			idxs = append(idxs, int32(segs[i].Index))
		}
	}
	s.mu.Unlock()
	if len(idxs) == 0 {
		s.mu.Lock()
		delete(s.pending, mid)
		delete(s.acked, mid)
		s.mu.Unlock()
		return 0, errors.New("livenet: no live paths")
	}
	s.node.m.messagesSent.Inc()
	jobs := s.sendRound(mid, pm, idxs)
	s.armRound(mid, pm, jobs)
	return mid, nil
}

// sendRound transmits the given segment indexes over live paths —
// each segment on its home slot when that slot is alive, otherwise
// round-robin over the survivors — and returns what went where.
func (s *LiveSession) sendRound(mid uint64, pm *pendingMsg, idxs []int32) []roundJob {
	s.mu.Lock()
	var slots []int
	for i, a := range s.alive {
		if a && s.paths[i] != nil {
			slots = append(slots, i)
		}
	}
	paths := append([]*Path(nil), s.paths...)
	s.mu.Unlock()
	if len(slots) == 0 {
		return nil
	}
	aliveSet := make(map[int]bool, len(slots))
	for _, sl := range slots {
		aliveSet[sl] = true
	}
	var jobs []roundJob
	rr := 0
	for _, idx := range idxs {
		slot := int(idx)
		if slot >= len(paths) || !aliveSet[slot] {
			slot = slots[rr%len(slots)]
			rr++
		}
		p := paths[slot]
		seg := pm.segs[idx]
		msg := liveSegment{
			mid:    mid,
			index:  int32(seg.Index),
			total:  int32(s.code.N()),
			needed: int32(s.code.M()),
			data:   seg.Data,
		}
		p.Send(msg.encode())
		jobs = append(jobs, roundJob{slot: slot, p: p, idx: idx})
		s.node.m.segmentsSent.Inc()
		s.node.emit(obs.Event{
			Type: obs.SegmentSent, At: time.Now().UnixMicro(),
			Node: int(s.node.cfg.ID), Peer: int(p.Responder), ID: mid,
			Seq: int64(seg.Index), Slot: slot, Hop: -1,
			Size: len(seg.Data),
		})
	}
	return jobs
}

// armRound schedules the round's failure detector: after the ack
// timeout, slots whose segment went unacknowledged are condemned and —
// within the retransmit budget — missing segments go out again.
func (s *LiveSession) armRound(mid uint64, pm *pendingMsg, jobs []roundJob) {
	time.AfterFunc(s.opts.AckTimeout, func() {
		select {
		case <-s.quit:
			return
		default:
		}
		s.mu.Lock()
		acks := s.acked[mid]
		for _, j := range jobs {
			if acks == nil || !acks[j.idx] {
				s.markDeadLocked(j.slot, j.p, obs.ReasonAckTimeout)
			}
		}
		if _, live := s.pending[mid]; !live {
			// Already resolved (delivered via early ack count); the sweep
			// above was this timer's last duty.
			delete(s.acked, mid)
			s.mu.Unlock()
			return
		}
		if len(acks) >= s.code.M() {
			s.resolveLocked(mid, nil)
			delete(s.acked, mid)
			s.mu.Unlock()
			return
		}
		if pm.rounds >= s.opts.MaxRetransmits {
			s.resolveLocked(mid, errMessageLost)
			delete(s.acked, mid)
			s.mu.Unlock()
			return
		}
		pm.rounds++
		// Retransmit every unacknowledged segment index.
		var missing []int32
		for i := 0; i < s.code.N(); i++ {
			if !acks[int32(i)] {
				missing = append(missing, int32(i))
			}
		}
		s.mu.Unlock()
		s.node.m.retransmits.Inc()
		next := s.sendRound(mid, pm, missing)
		s.armRound(mid, pm, next)
	})
}

// Await blocks until the message's verdict is in: nil once m distinct
// acks confirmed delivery, errMessageLost when the retransmit budget
// ran out, or the context error.
func (s *LiveSession) Await(ctx context.Context, mid uint64) error {
	for {
		s.mu.Lock()
		if err, ok := s.resolved[mid]; ok {
			delete(s.resolved, mid)
			s.mu.Unlock()
			return err
		}
		pm, ok := s.pending[mid]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("livenet: unknown message %d", mid)
		}
		select {
		case <-pm.done:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.quit:
			return errors.New("livenet: session torn down")
		}
	}
}

// probeLoop sends a nonce down every live path at the probe cadence;
// an echo that fails to return within the ack timeout condemns the
// path (§4.5's probing failure detector on real sockets).
func (s *LiveSession) probeLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		var targets []roundJob
		for i, p := range s.paths {
			if p != nil && s.alive[i] {
				targets = append(targets, roundJob{slot: i, p: p})
			}
		}
		s.mu.Unlock()
		for _, t := range targets {
			t := t
			nonce := newSID()
			s.mu.Lock()
			s.probes[nonce] = t
			s.mu.Unlock()
			s.node.m.probes.Inc()
			t.p.Send(encodeProbe(liveKindProbe, nonce))
			time.AfterFunc(s.opts.AckTimeout, func() {
				s.mu.Lock()
				ref, outstanding := s.probes[nonce]
				delete(s.probes, nonce)
				if outstanding {
					s.node.m.probeTimeouts.Inc()
					s.markDeadLocked(ref.slot, ref.p, obs.ReasonProbeTimeout)
				}
				s.mu.Unlock()
			})
		}
	}
}

// repairLoop reconstructs condemned path slots through fresh relays
// (§4.5's path replacement): tear down the dead path, pick relays not
// serving any live slot, and rebuild with jittered exponential backoff.
func (s *LiveSession) repairLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.repairKick:
		}
		for {
			select {
			case <-s.quit:
				return
			default:
			}
			slot := s.deadSlot()
			if slot < 0 {
				break
			}
			s.repairSlot(slot)
		}
	}
}

// deadSlot returns the first condemned slot, or -1.
func (s *LiveSession) deadSlot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.alive {
		if !a {
			return i
		}
	}
	return -1
}

// freshRelays picks a relay list for a slot repair: relays not serving
// any live slot are preferred; relays of dead paths fill the remainder
// when the roster is too small for strict freshness.
func (s *LiveSession) freshRelays(slot int) []netsim.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := len(s.relays[slot])
	inUse := make(map[netsim.NodeID]bool)
	for i, rl := range s.relays {
		if i != slot && s.alive[i] {
			for _, r := range rl {
				inUse[r] = true
			}
		}
	}
	roster := s.node.roster()
	var fresh, fallback []netsim.NodeID
	for id := 0; id < roster.Size(); id++ {
		nid := netsim.NodeID(id)
		if nid == s.node.cfg.ID || nid == s.responder {
			continue
		}
		if inUse[nid] {
			continue
		}
		used := false
		for _, r := range s.relays[slot] {
			if r == nid {
				used = true
				break
			}
		}
		if used {
			fallback = append(fallback, nid)
		} else {
			fresh = append(fresh, nid)
		}
	}
	s.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	s.rng.Shuffle(len(fallback), func(i, j int) { fallback[i], fallback[j] = fallback[j], fallback[i] })
	pick := append(fresh, fallback...)
	if len(pick) < want {
		return nil
	}
	return pick[:want]
}

// repairSlot rebuilds one condemned slot, retrying per the construct
// policy. On success the slot goes live again and pending messages'
// next retransmit round uses it.
func (s *LiveSession) repairSlot(slot int) {
	var built *Path
	var builtRelays []netsim.NodeID
	err := s.opts.ConstructRetry.Do(s.ctx, func(ctx context.Context) error {
		relays := s.freshRelays(slot)
		if relays == nil {
			return errors.New("livenet: no candidate relays for repair")
		}
		cctx, cancel := context.WithTimeout(ctx, s.node.cfg.ConstructTimeout)
		defer cancel()
		p, err := s.node.ConstructCtx(cctx, relays, s.responder)
		if err != nil {
			return err
		}
		built = p
		builtRelays = relays
		return nil
	})
	if err != nil {
		s.node.m.repairFailed.Inc()
		// Leave the slot dead; the next probe round or send failure will
		// kick the worker again, and a later retransmit may still get
		// through over surviving paths.
		return
	}
	s.mu.Lock()
	old := s.paths[slot]
	s.paths[slot] = built
	s.relays[slot] = builtRelays
	s.alive[slot] = true
	s.syncDegradedLocked()
	s.mu.Unlock()
	if old != nil {
		old.Teardown()
	}
	s.wg.Add(1)
	go s.ackLoop(built)
	s.node.m.repaired.Inc()
	s.node.emit(obs.Event{
		Type: obs.PathBuilt, At: time.Now().UnixMicro(),
		Node: int(s.node.cfg.ID), Peer: int(s.responder),
		ID: built.SID, Seq: int64(len(builtRelays)), Slot: slot, Hop: -1,
		Reason: obs.ReasonPredicted,
	})
}

// coverLoop emits cover traffic down a random live path — and sheds it
// first (before any real traffic suffers) when the session is degraded
// or the in-flight queue is half full.
func (s *LiveSession) coverLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.CoverInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		shed := s.degraded || len(s.pending) >= s.opts.MaxInflight/2
		var candidates []*Path
		if !shed {
			for i, p := range s.paths {
				if p != nil && s.alive[i] {
					candidates = append(candidates, p)
				}
			}
			shed = len(candidates) == 0
		}
		var p *Path
		if !shed {
			p = candidates[s.rng.Intn(len(candidates))]
		}
		s.mu.Unlock()
		if shed {
			s.node.m.coverShed.Inc()
			continue
		}
		pad := make([]byte, s.opts.CoverSize)
		rand.Read(pad)
		p.Send(encodeCover(pad))
		s.node.m.coverSent.Inc()
	}
}

// Teardown stops the resilience loops and forgets all paths locally.
func (s *LiveSession) Teardown() {
	s.closeOnce.Do(func() {
		s.cancel()
		close(s.quit)
		s.wg.Wait()
		s.mu.Lock()
		if s.degraded {
			s.degraded = false
			total := s.node.degraded.Add(-1)
			s.node.m.degraded.Set(float64(total))
		}
		paths := append([]*Path(nil), s.paths...)
		s.mu.Unlock()
		for _, p := range paths {
			if p != nil {
				p.Teardown()
			}
		}
	})
}
