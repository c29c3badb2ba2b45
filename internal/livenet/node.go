package livenet

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
)

// DataFunc receives a decrypted application payload at a live responder
// together with a reply handle. data is the callee's to keep: nothing
// else reads or writes its backing buffer after the call.
type DataFunc func(h ReplyHandle, data []byte)

// Config assembles a live node.
type Config struct {
	// ID is this node's roster identity.
	ID netsim.NodeID
	// Roster is the deployment membership and PKI.
	Roster *Roster
	// Private is this node's private key (matching its roster entry).
	Private onioncrypt.PrivateKey
	// Suite selects the cryptography; nil selects ECIES (real crypto is
	// the point of a live node).
	Suite onioncrypt.Suite
	// StateTTL bounds idle relay state; zero selects 10 minutes.
	StateTTL time.Duration
	// DialTimeout bounds outbound connection attempts; zero selects 5s.
	DialTimeout time.Duration
	// ConstructTimeout bounds the wait for a construction ack; zero
	// selects 10s.
	ConstructTimeout time.Duration
	// OnData enables the responder role.
	OnData DataFunc
	// Tracer, when non-nil, receives the node's wire events. Live
	// events carry wall-clock microseconds in At (a live network has no
	// virtual clock), so live traces are not run-to-run reproducible —
	// unlike simulator traces.
	Tracer obs.Tracer
}

// liveMetrics holds the node's registry instruments, resolved once at
// startup: nothing on the per-frame or per-segment path looks a metric
// up by name.
type liveMetrics struct {
	framesOut, badFrames         *obs.Counter
	framesIn                     [kindConstructData + 1]*obs.Counter
	forwardStates, reverseStates *obs.Gauge
	pathsBuilt                   *obs.Counter

	// Initiator sessions (session.*, live.repair.*, live.cover_*).
	messagesSent, messagesDelivered, messagesLost *obs.Counter
	segmentsSent, segmentsAcked, retransmits      *obs.Counter
	sendRejected, pathsDead                       *obs.Counter
	probes, probeTimeouts, repaired, repairFailed *obs.Counter
	coverSent, coverShed                          *obs.Counter
	degraded                                      *obs.Gauge

	// Responder collector (recv.*).
	recvSegments, recvDupSegments, recvDelivered *obs.Counter
	recvProbes, recvCover                        *obs.Counter
}

// kindNames names the frame kinds for metrics.
var kindNames = [kindConstructData + 1]string{
	kindConstruct: "construct", kindAck: "ack", kindData: "data",
	kindDeliver: "deliver", kindReverse: "reverse", kindConstructData: "construct_data",
}

func newLiveMetrics(reg *obs.Registry) *liveMetrics {
	m := &liveMetrics{
		framesOut:     reg.Counter("live.frames_out"),
		badFrames:     reg.Counter("live.bad_frames"),
		forwardStates: reg.Gauge("live.forward_states"),
		reverseStates: reg.Gauge("live.reverse_states"),
		pathsBuilt:    reg.Counter("live.paths_built"),

		messagesSent:      reg.Counter("session.messages_sent"),
		messagesDelivered: reg.Counter("session.messages_delivered"),
		messagesLost:      reg.Counter("session.messages_lost"),
		segmentsSent:      reg.Counter("session.segments_sent"),
		segmentsAcked:     reg.Counter("session.segments_acked"),
		retransmits:       reg.Counter("session.retransmits"),
		sendRejected:      reg.Counter("session.send_rejected"),
		pathsDead:         reg.Counter("session.paths_dead"),
		probes:            reg.Counter("live.repair.probes"),
		probeTimeouts:     reg.Counter("live.repair.probe_timeouts"),
		repaired:          reg.Counter("live.repair.repaired"),
		repairFailed:      reg.Counter("live.repair.failed"),
		coverSent:         reg.Counter("live.cover_sent"),
		coverShed:         reg.Counter("live.cover_shed"),
		degraded:          reg.Gauge("live.degraded"),

		recvSegments:    reg.Counter("recv.segments"),
		recvDupSegments: reg.Counter("recv.dup_segments"),
		recvDelivered:   reg.Counter("recv.delivered"),
		recvProbes:      reg.Counter("recv.probes"),
		recvCover:       reg.Counter("recv.cover"),
	}
	reg.Counter("live.send_errors") // exported from the start; bumped by noteDropped
	for k := kindConstruct; k <= kindConstructData; k++ {
		m.framesIn[k] = reg.Counter("live.frames_in." + kindNames[k])
	}
	return m
}

// Node is a live peer: relay always, initiator and responder on demand.
// All methods are safe for concurrent use.
//
// Backward routing note: in the simulator, netsim hands every handler
// the sender's identity. TCP does not (connections come from ephemeral
// ports), so construct and deliver frames carry the sender's 4-byte
// roster id in-band. This reveals nothing the protocol doesn't already:
// each relay knows its predecessor by design (§5's analysis is built on
// exactly that), and the responder learns only the terminal relay.
type Node struct {
	cfg Config
	// rost is the current roster (cfg.Roster is only the one the node
	// started with): read on every frame, replaced by SetRoster.
	rost atomic.Pointer[Roster]
	ln   net.Listener
	reg  *obs.Registry
	m    *liveMetrics
	// rt samples Go runtime telemetry (goroutines, heap in use, last GC
	// pause) into reg on every /metrics scrape.
	rt *obs.RuntimeCollector
	// hub fans trace events out to runtime subscribers (the
	// /debug/trace streaming endpoint); trc is the node's effective
	// tracer: the configured one plus the hub.
	hub *obs.Hub
	trc obs.Tracer

	// flt is the injected-fault controller (see fault.go); degraded
	// counts sessions currently running below full path width (set by
	// the session repair loop, surfaced via /readyz and live.degraded).
	flt      *faultCtl
	degraded atomic.Int64

	// readiness cache (see Ready): readyAt stamps the last probe,
	// readyErr holds its verdict.
	readyMu  sync.Mutex
	readyAt  time.Time
	readyErr error

	// The hop layer proper is internal/onion's: env carries what this
	// driver injects (crypto/rand, its own short lock), tab is the relay
	// state table and streams the responder endpoint. Their clock is
	// wall-clock nanoseconds.
	env     onion.Env
	tab     *onion.Table
	streams *onion.Streams

	mu    sync.Mutex
	acks  map[uint64]chan struct{} // initiator: pending construction acks
	paths map[uint64]*Path         // initiator: established paths by sid
	// peerOut holds the live.peer_out.<id> counters, each resolved on
	// the first frame to its peer.
	peerOut map[netsim.NodeID]*obs.Counter

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Start launches a node listening on addr ("127.0.0.1:0" in tests; the
// roster address in deployments). It returns once the listener is live.
func Start(addr string, cfg Config) (*Node, error) {
	if cfg.Roster == nil {
		return nil, errors.New("livenet: config needs a roster")
	}
	if _, err := cfg.Roster.Peer(cfg.ID); err != nil {
		return nil, err
	}
	if len(cfg.Private) == 0 {
		return nil, errors.New("livenet: config needs the private key")
	}
	if cfg.Suite == nil {
		cfg.Suite = onioncrypt.ECIES{}
	}
	if cfg.StateTTL <= 0 {
		cfg.StateTTL = 10 * time.Minute
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ConstructTimeout <= 0 {
		cfg.ConstructTimeout = 10 * time.Second
	}
	// An inbound connection carries one frame and closes: no keep-alive
	// set-up.
	lc := net.ListenConfig{KeepAlive: -1}
	ln, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen: %w", err)
	}
	reg := obs.NewRegistry()
	hub := obs.NewHub()
	env := onion.Env{
		Suite:  cfg.Suite,
		Rand:   rand.Reader,
		NewSID: func() onion.StreamID { return onion.StreamID(newSID()) },
		Lock:   new(sync.Mutex),
	}
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		reg:     reg,
		m:       newLiveMetrics(reg),
		rt:      obs.NewRuntimeCollector(reg),
		hub:     hub,
		trc:     obs.Multi(cfg.Tracer, hub),
		flt:     newFaultCtl(),
		env:     env,
		tab:     onion.NewTable(env, cfg.Private, int64(cfg.StateTTL)),
		streams: onion.NewStreams(env, cfg.Private, int64(cfg.StateTTL)),
		acks:    make(map[uint64]chan struct{}),
		paths:   make(map[uint64]*Path),
		peerOut: make(map[netsim.NodeID]*obs.Counter),
		quit:    make(chan struct{}),
	}
	n.rost.Store(cfg.Roster)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.sweepLoop()
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetRoster replaces the node's roster. Clusters that bind ephemeral
// ports start with a provisional roster and install the final one (with
// real addresses) once every listener is up.
func (n *Node) SetRoster(r *Roster) { n.rost.Store(r) }

// roster returns the current roster.
func (n *Node) roster() *Roster { return n.rost.Load() }

// Metrics returns the node's metrics registry.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// emit hands one trace event to the configured tracer and every live
// subscriber. trc is never nil (the hub is always present).
func (n *Node) emit(e obs.Event) { n.trc.Emit(e) }

// AttachTracer subscribes a tracer to the node's live event stream and
// returns its (idempotent) detach function — the mechanism behind
// /debug/trace streaming.
func (n *Node) AttachTracer(t obs.Tracer) (detach func()) {
	return n.hub.Attach(t)
}

// syncStateGauges refreshes the relay-state gauges.
func (n *Node) syncStateGauges() {
	forward, reverse := n.tab.States()
	n.m.forwardStates.Set(float64(forward))
	n.m.reverseStates.Set(float64(reverse))
}

// Close stops the listener and waits for in-flight handlers. It is
// idempotent.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.quit)
		err = n.ln.Close()
		n.wg.Wait()
	})
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			f, err := readFrame(conn)
			if err != nil {
				return
			}
			if !n.handle(f) {
				bufpool.Release(f.pooled)
			}
		}()
	}
}

// sweepLoop reclaims expired relay and responder state (§4.3's TTL).
func (n *Node) sweepLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.StateTTL / 2)
	defer ticker.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-ticker.C:
			now := time.Now().UnixNano()
			n.tab.Sweep(now)
			n.streams.Sweep(now)
			n.syncStateGauges()
		}
	}
}

// send dials the peer a hop-layer output is for and writes it as one
// frame (see writeFrame for room). Nothing can cancel it: the frame's
// deadline is all that bounds it (sendCtx).
func (n *Node) send(s onion.Send, room []byte) error {
	return n.sendCtx(context.Background(), s, room)
}

// sendCtx dials a peer once and writes one frame, all by one deadline:
// DialTimeout from now, or ctx's deadline if that comes first. It first
// consults the fault controller (blackholes refuse the frame, the
// injected drop rate consumes it silently, injected latency delays it,
// but not past the deadline: a frame the delay would carry past it is
// cut there and counted as a send error); what is left of the deadline
// bounds the dial and the write (Roster.dial). A failed dial or write is
// a send error, and the node does not try it again: trying again is the
// session machine's job — its retransmit rounds and the repairs each
// probe tick asks for.
//
// ctx is what can cancel the frame: context.Background for send's, the
// caller's for a construction's first frame (launch). Only the latter
// costs a context per dial; a frame of send's has no context, timer or
// goroutine of its own.
func (n *Node) sendCtx(ctx context.Context, s onion.Send, room []byte) error {
	limit, _ := ctx.Deadline()
	deadline := within(limit, n.cfg.DialTimeout)
	to, sid, size := s.To, uint64(s.SID), frameHeader+frameBodyLen(s)
	if size > maxFrameSize {
		// A reverse body grows a layer per hop: one that fitted at the
		// responder can stop fitting here, where only this drop says so.
		n.noteDropped("live.send_errors", to, sid, size, obs.ReasonSendFailed)
		return ErrFrameTooLarge
	}
	if n.flt.blackholed(to) {
		n.noteDropped("live.fault.refused", to, sid, size, obs.ReasonBlackholed)
		return fmt.Errorf("livenet: peer %d blackholed", to)
	}
	if delay, dropped := n.flt.outboundFault(); dropped {
		n.noteDropped("live.fault.dropped", to, sid, size, obs.ReasonInjectedDrop)
		return nil // the frame "left" but will never arrive
	} else if delay > 0 {
		wait := min(delay, time.Until(deadline))
		t := time.NewTimer(wait)
		cut := true
		select {
		case <-t.C:
			cut = wait < delay
		case <-ctx.Done():
			t.Stop()
		}
		if cut {
			n.noteDropped("live.send_errors", to, sid, size, obs.ReasonSendFailed)
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.DeadlineExceeded
		}
	}
	conn, err := n.roster().dial(ctx, to, deadline)
	if err == nil {
		conn.SetWriteDeadline(deadline)
		err = writeFrame(conn, n.cfg.ID, s, room)
		conn.Close()
	}
	if err != nil {
		n.noteDropped("live.send_errors", to, sid, size, obs.ReasonSendFailed)
		return err
	}
	n.m.framesOut.Inc()
	n.peerOutCounter(to).Inc()
	n.emit(obs.Event{
		Type: obs.MsgSent, At: time.Now().UnixMicro(),
		Node: int(n.cfg.ID), Peer: int(to), ID: sid,
		Slot: -1, Hop: -1, Size: size,
	})
	return nil
}

// peerOutCounter returns the per-relay egress counter of a peer:
// anonctl's cluster aggregation uses the live.peer_out.* family to spot
// silent relays.
func (n *Node) peerOutCounter(to netsim.NodeID) *obs.Counter {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.peerOut[to]
	if c == nil {
		c = n.reg.Counter("live.peer_out." + strconv.Itoa(int(to)))
		n.peerOut[to] = c
	}
	return c
}

func newSID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("livenet: crypto/rand failed: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// admit strips the in-band sender id off a construct or deliver frame
// and vets it: a roster member, not blackholed.
func (n *Node) admit(f frame) (from netsim.NodeID, rest []byte, ok bool) {
	if len(f.body) < 4 {
		return netsim.Invalid, nil, false
	}
	from, rest = netsim.NodeID(binary.BigEndian.Uint32(f.body)), f.body[4:]
	if _, err := n.roster().Peer(from); err != nil {
		return netsim.Invalid, nil, false
	}
	if n.flt.blackholed(from) {
		n.noteDropped("live.fault.refused", from, f.sid, frameHeader+len(f.body), obs.ReasonBlackholed)
		return netsim.Invalid, nil, false
	}
	return from, rest, true
}

// handle dispatches one inbound frame: frames of this node's own paths
// go to its initiator role, deliveries to its responder role, and the
// rest through the relay table, whose answers go back out as frames —
// a forwarded, delivered or reverse body from the buffer it arrived in.
// It reports whether the frame was handed to a role that may keep a
// piece of it; otherwise nothing refers to f.buf once handle returns.
func (n *Node) handle(f frame) (kept bool) {
	now := time.Now().UnixNano() // the hop layer's clock
	if f.kind < kindConstruct || f.kind > kindConstructData {
		n.m.badFrames.Inc()
		return false
	}
	n.m.framesIn[f.kind].Inc()
	sid := onion.StreamID(f.sid)
	var step onion.Step
	switch f.kind {
	case kindConstruct, kindConstructData:
		from, rest, ok := n.admit(f)
		if !ok {
			return false
		}
		if f.kind == kindConstruct {
			step = n.tab.Construct(now, from, sid, rest)
		} else {
			if len(rest) < 4 {
				return false
			}
			onionLen := binary.BigEndian.Uint32(rest)
			if uint64(onionLen) > uint64(len(rest)-4) {
				return false
			}
			step = n.tab.ConstructData(now, from, sid, rest[4:4+onionLen], rest[4+onionLen:])
		}
		n.syncStateGauges()
	case kindAck:
		if n.completeAck(f.sid) {
			return false
		}
		step = n.tab.Ack(now, sid)
	case kindData:
		step = n.tab.Data(now, sid, f.body)
	case kindDeliver:
		n.handleDeliver(f)
		return true
	case kindReverse:
		n.mu.Lock()
		p := n.paths[f.sid]
		n.mu.Unlock()
		if p != nil {
			p.deliverReverse(f.body)
			return true
		}
		step = n.tab.Reverse(now, sid, f.body, f.buf)
	}
	for i := 0; i < step.N; i++ {
		// A failed send is counted and traced where it fails (sendCtx).
		_ = n.send(step.Out[i], f.buf)
	}
	return false
}

// completeAck resolves a pending local construction, if sid is one.
func (n *Node) completeAck(sid uint64) bool {
	n.mu.Lock()
	ch, ok := n.acks[sid]
	delete(n.acks, sid)
	n.mu.Unlock()
	if ok {
		close(ch)
	}
	return ok
}

// handleDeliver runs the responder role.
func (n *Node) handleDeliver(f frame) {
	if n.cfg.OnData == nil {
		return
	}
	relay, blob, ok := n.admit(f)
	if !ok {
		return
	}
	size := frameHeader + len(f.body)
	key, data, ok := n.streams.Open(time.Now().UnixNano(), onion.StreamID(f.sid), blob)
	if !ok {
		return
	}
	n.emit(obs.Event{
		Type: obs.MsgDelivered, At: time.Now().UnixMicro(),
		Node: int(n.cfg.ID), Peer: int(relay), ID: f.sid,
		Slot: -1, Hop: -1, Size: size,
	})
	n.cfg.OnData(ReplyHandle{node: n, sid: f.sid, relay: relay, key: key, frame: f.pooled}, data)
}

// ReplyHandle lets a live responder answer along the delivering path.
type ReplyHandle struct {
	node  *Node
	sid   uint64
	relay netsim.NodeID
	key   onioncrypt.Cipher // the delivering stream's, for this reply
	frame *[]byte           // the buffer the delivery lies in, or nil
}

// releaseFrame gives the buffer the delivery lies in back to the pool.
// Only LiveCollector calls it, once it is done with data: a DataFunc of
// the application's keeps its data, and its frame is never reused.
func (h ReplyHandle) releaseFrame() {
	if h.frame != nil {
		bufpool.Release(h.frame)
	}
}

// From returns the terminal relay the payload arrived through.
func (h ReplyHandle) From() netsim.NodeID { return h.relay }

// Reply encrypts data with the stream key and sends it up the reverse
// path; data is only read. The reply leaves as a frame of frameHeader +
// 28 + len(data) bytes and grows by a 28-byte layer at every relay; one
// that would leave here larger than maxFrameSize is refused with
// ErrFrameTooLarge, and one that outgrows it on the way is dropped by
// the relay it no longer fits at — counted in that relay's
// live.send_errors and traced as MsgDropped, which the responder never
// sees. The responder does not know how long the path back is, so the
// largest reply sure to arrive is the one that leaves a layer of room
// for every relay of the longest path the deployment builds:
// maxFrameSize − frameHeader − 28·(L+1) bytes over L relays.
func (h ReplyHandle) Reply(data []byte) error {
	return h.replyApp(len(data), func(b []byte) []byte { return append(b, data...) })
}

// replyApp is Reply for a message of plainLen bytes that plain appends
// to the slice it is handed: the reply is encoded and sealed in one
// pooled buffer, behind room for the frame header, and that buffer is
// what is written (Path.sendApp is the forward twin).
func (h ReplyHandle) replyApp(plainLen int, plain func([]byte) []byte) error {
	size := frameHeader + plainLen + h.node.cfg.Suite.SymOverhead()
	if size > maxFrameSize {
		return fmt.Errorf("%w: a %d-byte reply needs %d of %d", ErrFrameTooLarge, plainLen, size, maxFrameSize)
	}
	bp := bufpool.Get(size)
	buf := (*bp)[:size]
	s, err := h.node.streams.AppendReply(buf[:frameHeader], h.relay, onion.StreamID(h.sid), h.key, plainLen, plain)
	if err == nil {
		err = h.node.send(s, buf)
	}
	bufpool.Release(bp)
	return err
}
