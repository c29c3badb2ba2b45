package onion

import (
	"fmt"
	"sync/atomic"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
)

// DefaultConstructTimeout bounds how long the initiator waits for a
// construction acknowledgment before declaring the attempt failed
// (§4.5 "timeout and retry mechanisms").
const DefaultConstructTimeout = 5 * sim.Second

// PathState tracks a path's lifecycle at the initiator.
type PathState int

// Path lifecycle states.
const (
	PathConstructing PathState = iota
	PathEstablished
	PathFailed
)

// String names the state.
func (s PathState) String() string {
	switch s {
	case PathConstructing:
		return "constructing"
	case PathEstablished:
		return "established"
	case PathFailed:
		return "failed"
	default:
		return fmt.Sprintf("PathState(%d)", int(s))
	}
}

// Path is the initiator's record of one anonymous forwarding path. The
// record is its initiator's: Construct hands it out and Forget takes it
// back, for a later construction in the world to reuse (the
// directory's spares). Nothing may read a Path after its Forget.
type Path struct {
	// SID is the stream ID on the initiator→first-relay link.
	SID StreamID
	// Relays are P_1..P_L in forwarding order.
	Relays []netsim.NodeID
	// Responder is the path's current default destination.
	Responder netsim.NodeID
	// State is the lifecycle state.
	State PathState
	// EstablishedAt is when the construction ack arrived.
	EstablishedAt sim.Time
	// OnReverse, when set, receives the path's reverse traffic in place
	// of the initiator's ReverseFunc. The caller sets it as Construct
	// returns, before any reply can arrive.
	OnReverse ReverseFunc

	keys      PathKeys
	relayList [inlineHops]netsim.NodeID // where Relays starts out

	onResult func(*Path, bool) // construction outcome callback
	timer    sim.Timer
	// expire is the construction timer's callback (timedOut), bound to
	// the record once, when it is made: every life of the record arms
	// it.
	expire func()
}

// ReverseFunc receives a decrypted reverse-path payload at the
// initiator: the path it arrived on, the responder that sent it, the
// plaintext, and buf, the handle of the pooled buffer the payload
// crossed the network in (nil when it was in none). plain may lie in
// buf. The callee owns buf: it releases it (bufpool.Release) once
// nothing reads plain any more, hands it on with plain, or drops it —
// in which case the buffer is never reused and plain may be kept.
type ReverseFunc func(p *Path, from netsim.NodeID, plain []byte, buf *[]byte, flow *metrics.Flow)

// Initiator is the sender-side endpoint: it constructs paths (§4.1),
// sends payload onions (§4.2), reuses paths for new responders (§4.4)
// and surfaces reverse-path traffic.
type Initiator struct {
	id      netsim.NodeID
	net     *netsim.Network
	eng     *sim.Engine
	env     Env
	dir     *Directory
	timeout sim.Time

	paths     map[StreamID]*Path
	onReverse ReverseFunc
}

// NewInitiator creates the initiator endpoint for a node. timeout <= 0
// selects DefaultConstructTimeout.
func NewInitiator(net *netsim.Network, id netsim.NodeID, dir *Directory, timeout sim.Time, onReverse ReverseFunc) *Initiator {
	if timeout <= 0 {
		timeout = DefaultConstructTimeout
	}
	return &Initiator{
		id:        id,
		net:       net,
		eng:       net.Engine(),
		env:       simEnv(net.Engine().RNG(), dir.Suite(), &dir.spares),
		dir:       dir,
		timeout:   timeout,
		paths:     make(map[StreamID]*Path),
		onReverse: onReverse,
	}
}

// Paths returns the number of tracked paths.
func (in *Initiator) Paths() int { return len(in.paths) }

// Forget drops a path's local record (e.g. after it failed and was
// replaced) and takes it back for a later construction: the caller
// reads p no more. A construction timeout still armed is cancelled, so
// it cannot fire into the record's next life, and the path's reverse
// traffic is dropped from then on. Forget of a path the initiator does
// not hold (one already forgotten) does nothing.
func (in *Initiator) Forget(p *Path) {
	if in.paths[p.SID] != p {
		return
	}
	delete(in.paths, p.SID)
	p.timer.Cancel()
	if poison.Load() {
		p.poison()
	}
	in.env.spares.paths = append(in.env.spares.paths, p)
}

// poison makes Forget overwrite a record before keeping it: a test seam
// that turns any use of a path after its Forget into a failed path on
// an invalid stream, through invalid relays, to no responder.
var poison atomic.Bool

// SetPoison turns Forget's poisoning on or off. It is a test seam for
// lifetime bugs, like bufpool.SetPoison: a test that sets it restores
// it when done, and tests that run concurrently share it.
func SetPoison(on bool) { poison.Store(on) }

func (p *Path) poison() {
	for i := range p.relayList {
		p.relayList[i] = poisonNode
	}
	*p = Path{
		SID:       StreamID(0xdbdbdbdbdbdbdbdb),
		Relays:    p.relayList[:],
		Responder: poisonNode,
		State:     PathFailed,
		keys:      PathKeys{first: poisonNode, sid: StreamID(0xdbdbdbdbdbdbdbdb)},
		relayList: p.relayList,
		expire:    p.expire,
	}
}

// poisonNode is the node a poisoned record names everywhere.
const poisonNode = netsim.NodeID(-0x2424)

// record returns a path record for a launch: one a Forget gave back, or
// a new one, its timeout callback bound to it.
func (in *Initiator) record() *Path {
	free := in.env.spares
	if n := len(free.paths); n > 0 {
		p := free.paths[n-1]
		free.paths = free.paths[:n-1]
		return p
	}
	p := new(Path)
	p.expire = p.timedOut
	return p
}

// Construct builds and launches a path through the given relays to the
// responder. The done callback fires exactly once: with true when the
// construction ack arrives, with false on timeout or on immediate
// failure (in which case Construct also returns the error).
func (in *Initiator) Construct(relays []netsim.NodeID, responder netsim.NodeID, flow *metrics.Flow, done func(*Path, bool)) (*Path, error) {
	return in.launch(relays, responder, nil, false, flow, obs.Tag{}, done)
}

// ConstructWithData builds a path AND sends the first payload in the
// same single pass (§4.2's combined mode): the first application message
// arrives at the responder one half-RTT after launch instead of waiting
// a full construction round trip. The done callback still reports the
// construction outcome when the ack returns.
func (in *Initiator) ConstructWithData(relays []netsim.NodeID, responder netsim.NodeID, plain []byte, flow *metrics.Flow, done func(*Path, bool)) (*Path, error) {
	return in.ConstructWithDataTagged(relays, responder, plain, flow, obs.Tag{}, done)
}

// ConstructWithDataTagged is ConstructWithData with a data-plane trace
// tag stamped on the piggybacked payload's wire journey.
func (in *Initiator) ConstructWithDataTagged(relays []netsim.NodeID, responder netsim.NodeID, plain []byte, flow *metrics.Flow, tag obs.Tag, done func(*Path, bool)) (*Path, error) {
	return in.launch(relays, responder, plain, true, flow, tag, done)
}

// launch keys a path, records it, sends its first message and arms the
// construction timeout. The message is built in one pooled buffer,
// which travels with it from hop to hop (Relay.apply) and goes back
// where the last of it is read — at the terminal relay, or at the
// responder with the payload that rode it — or where it is dropped.
func (in *Initiator) launch(relays []netsim.NodeID, responder netsim.NodeID, plain []byte, withData bool, flow *metrics.Flow, tag obs.Tag, done func(*Path, bool)) (*Path, error) {
	p := in.record()
	bp := bufpool.Get(LaunchSize(in.env.Suite, len(relays), len(plain), withData))
	first, err := p.keys.Launch(in.env, in.dir, in.id, relays, responder, (*bp)[:0], plain, withData)
	if err != nil {
		bufpool.Release(bp)
		return nil, err
	}
	p.SID, p.Responder, p.State = first.SID, responder, PathConstructing
	p.Relays = append(p.relayList[:0], relays...)
	p.EstablishedAt, p.OnReverse, p.onResult = 0, nil, done
	in.paths[p.SID] = p
	transmit(in.net, in.id, &first, bp, flow, tag)
	p.timer = in.eng.After(in.timeout, p.expire)
	return p, nil
}

// timedOut is a construction timeout: a path still constructing failed.
func (p *Path) timedOut() {
	if p.State == PathConstructing {
		p.State = PathFailed
		p.finish(false)
	}
}

// finish reports the construction's outcome, once.
func (p *Path) finish(ok bool) {
	if cb := p.onResult; cb != nil {
		p.onResult = nil
		cb(p, ok)
	}
}

// SendData sends an application payload to the path's default responder.
func (in *Initiator) SendData(p *Path, plain []byte, flow *metrics.Flow) error {
	return in.SendDataTo(p, p.Responder, plain, flow)
}

// SendDataTo sends an application payload over the path to an arbitrary
// responder, reusing the established path state (§4.4). The path must be
// established.
func (in *Initiator) SendDataTo(p *Path, responder netsim.NodeID, plain []byte, flow *metrics.Flow) error {
	return in.SendDataTagged(p, responder, plain, flow, obs.Tag{})
}

// SendDataTagged is SendDataTo with a data-plane trace tag stamped on
// the payload's wire journey, so offline analysis can follow it hop by
// hop.
func (in *Initiator) SendDataTagged(p *Path, responder netsim.NodeID, plain []byte, flow *metrics.Flow, tag obs.Tag) error {
	return in.SendApp(p, responder, len(plain), func(b []byte) []byte { return append(b, plain...) }, flow, tag)
}

// SendApp is SendDataTagged for a message its caller encodes where it
// is sealed: plain appends the plainLen bytes to the slice it is handed
// (PathKeys.AppendData), so the send builds the onion — the bytes it
// puts on the wire — in one pooled buffer, which travels with it to the
// responder, and makes no copy of the message beside it.
func (in *Initiator) SendApp(p *Path, responder netsim.NodeID, plainLen int, plain func([]byte) []byte, flow *metrics.Flow, tag obs.Tag) error {
	if p.State != PathEstablished {
		return fmt.Errorf("onion: path is %v, not established", p.State)
	}
	bp := bufpool.Get(p.keys.DataSize(plainLen))
	msg, err := p.keys.AppendData((*bp)[:0], in.dir, responder, plainLen, plain)
	if err != nil {
		bufpool.Release(bp)
		return err
	}
	transmit(in.net, in.id, &msg, bp, flow, tag)
	return nil
}

// handleConstructAck completes a pending construction of p.
func (in *Initiator) handleConstructAck(p *Path) {
	if p.State != PathConstructing {
		return
	}
	p.State = PathEstablished
	p.EstablishedAt = in.eng.Now()
	p.timer.Cancel()
	p.finish(true)
}

// handleReverse peels all relay layers plus the responder layer of a
// message on p and hands the plaintext, and the buffer it arrived in, to
// the path's callback, or the initiator's when the path has none.
func (in *Initiator) handleReverse(p *Path, msg *packet) {
	cb := p.OnReverse
	if cb == nil {
		cb = in.onReverse
	}
	if dest, plain, ok := p.keys.OpenReverse(msg.Body); ok && cb != nil {
		cb(p, dest, plain, msg.Buf, msg.Flow)
		return
	}
	bufpool.Release(msg.Buf)
}
