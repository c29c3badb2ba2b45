// Package livenet runs the paper's protocol over real TCP sockets with
// real cryptography — the bridge from the simulation (internal/netsim
// and friends) to a deployable node.
//
// The hop layer is not re-implemented here: relay state, stream-id
// mapping, TTL expiry, the responder's open and the initiator's path
// keys are internal/onion's transport- and clock-agnostic core (Table,
// Streams, PathKeys), the same code the simulator runs. Node is its TCP
// driver: it injects crypto/rand, wall-clock time and one short lock,
// and adds what only a socket needs — frames, the in-band sender id,
// roster and fault-injection admission, metrics and trace events. It
// never retries: a frame is dialled once and a replacement path is
// launched once; trying again is the session machine's (its retransmit
// rounds, and the repairs each probe tick asks for).
//
// Nor is the session layer: segment allocation, the ack ledger, probe
// rounds, condemnation, retransmission, repair requests, the in-flight
// bound and cover shedding (§4.5, §4.7) are internal/session's state
// machine, and the application codec and the responder's reassembly are
// that package's too — the same code core.Session and core.Receiver
// drive in the simulator. LiveSession (session.go) is the machine's TCP
// driver: one mutex around its inputs, time.AfterFunc for its deadlines
// and the probe and cover ticks, one goroutine (only with
// SessionOptions.Repair) that builds replacement paths, biased mix
// choice over the roster for their relays, and Await, metrics and trace
// events on top. LiveCollector is the responder side.
//
// The data plane is one TCP connection per frame, and everything else
// about a frame is kept off it: the frame leaves in a single write (one
// packet), the receiver reads a 13-byte header and then the body, the
// connection skips keep-alive set-up it would never use, metric handles
// are resolved once, and the responder's asymmetric open runs once per
// path, not per segment (onion.Streams' key memo). A frame is a
// connection and a deadline: one time bounds its one dial and its write
// (Node.sendCtx) and the dial runs under it (dialDeadline), so a frame
// has no context, timer or goroutine of its own — the socket reads the
// deadline. Only a caller that can cancel (ConstructCtx) or a peer
// named by host name rather than IP gets a real context.
//
// A frame is in one buffer per hop, in both directions, and the buffer
// has one owner at a time (internal/onion/hop.go states the rule for the
// hop layer; this is the driver's half). Forward, the initiator encodes
// a segment straight into its payload onion, built and sealed in place
// in a pooled buffer behind room for the frame header, and writes that
// buffer; a relay reads a frame into one buffer, opens its layer in
// place, writes the next header over the bytes in front of what is left
// and sends the same buffer on; the terminal relay does the same for
// the delivery. Backward, the responder builds its reply — an ack is
// encoded where it is sealed — in a pooled buffer behind header room,
// and a relay seals its layer around the body where it was read:
// readFrame leaves one layer of slack around every frame (the same
// constant whatever the frame, so a buffer says nothing about its
// position on a path), the header goes in the bytes in front, and the
// frame leaves in one Write from the buffer it arrived in.
//
// A buffer is dead at Write unless it was handed to the application.
// The responder opens in place, so DataFunc's data is a piece of the
// frame it arrived in and the callee's to keep; the plaintext a Path
// gets off the reverse path can be a piece of its frame too. A Path's
// frames and a plain DataFunc's are never reused. LiveCollector, the
// in-package DataFunc, hands back what it is done with through its
// ReplyHandle: a probe's, a cover message's, an undecodable payload's
// and an unstored segment's frame at once; a stored segment's frame
// goes to the session reassembler, which gives it back once its message
// is rebuilt or forgotten; and it rebuilds the message into a pooled
// buffer that goes back when LiveDelivered returns. Every other
// frame was consumed by the relay table, which keeps nothing of it, so
// once Node.handle has written what the table answered the read buffer
// goes back to the pool readFrame draws from. At the initiator a
// message's coded segments lie in a pooled buffer from Send until the
// message's verdict, when the session machine reads them no more
// (session.Forget) — or, if the verdict comes while a round of them is
// still being written, until that round is out. What the write side
// builds a frame in — a payload onion, a reply, a frame writeFrame
// assembles — comes from the same pool and goes back once Write returns.
//
// Scope: static roster (the PKI directory with addresses) and one TCP
// connection per frame. Gossip membership and the liveness predictor
// remain simulation-side; the live mix choice ranks relays only by what
// the session itself has condemned.
package livenet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"time"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
)

// Message kinds on the wire: the hop layer's, byte for byte (1..6).
const (
	kindConstruct = byte(onion.KindConstruct)
	kindAck       = byte(onion.KindAck)
	kindData      = byte(onion.KindData)
	kindDeliver   = byte(onion.KindDeliver)
	kindReverse   = byte(onion.KindReverse)
	// kindConstructData combines construction and the first payload in
	// one pass (§4.2). Body: sender(4) | onionLen(4) | onion | payload.
	kindConstructData = byte(onion.KindConstructData)
)

// maxFrameSize bounds a frame to keep hostile peers from forcing huge
// allocations; frameBits is its binary logarithm, the largest size
// class of the buffer pool (internal/bufpool), so that every frame
// readFrame reads has a class.
const (
	frameBits    = bufpool.MaxClass
	maxFrameSize = 1 << frameBits
)

// ErrFrameTooLarge is returned for a payload whose frame, header
// included, would exceed maxFrameSize: the peer would drop it unread.
var ErrFrameTooLarge = errors.New("livenet: payload does not fit a frame")

// frame is one inbound wire message: kind, stream id, body. body lies
// in buf behind frameSlack + frameHeader bytes, with frameSlack more
// behind it, and buf is the handler's alone: a layer of body opens or is
// sealed in place, and what is forwarded leaves from buf with the new
// header written over the bytes in front of it (writeFrame). pooled is
// the handle by which buf, all of *pooled, goes back to the pool.
type frame struct {
	kind   byte
	sid    uint64
	body   []byte
	buf    []byte
	pooled *[]byte
}

// frameHeader is length(4) | kind(1) | sid(8); length counts kind, sid
// and body.
const frameHeader = 4 + 1 + 8

// frameSlack is the room readFrame leaves on either side of a frame: one
// symmetric layer (28 bytes in either suite — nonce in front and tag
// behind under ECIES, all of it in front under Null), so that a relay
// seals a reverse body where it was read. Nothing breaks if a suite
// needs more: the hop layer moves a body that lacks room.
const frameSlack = 28

// frameBodyLen is the length of the frame body writeFrame gives s.
func frameBodyLen(s onion.Send) int {
	n := len(s.Onion) + len(s.Body)
	switch s.Kind {
	case onion.KindConstruct, onion.KindDeliver:
		n += 4
	case onion.KindConstructData:
		n += 8
	}
	return n
}

// writeFrame lays one hop-layer output from node self out as
// length | kind | sid | body and emits it in a single Write, so a frame
// leaves as one packet (TCP_NODELAY is Go's default: a separate header
// write is a separate segment, and the reader wakes twice). Construct
// and deliver bodies lead with the sender's roster id (see the backward
// routing note on Node); the combined pass is
// sender(4) | onionLen(4) | onion | payload.
//
// When s.Body lies in room with at least the header's length of room in
// front of it — a payload onion or a reply built behind headroom, what
// a layer opened in place left of an inbound frame, or a reverse body
// sealed in place inside one — the header is written there and the
// frame leaves from room: the payload is not copied. Every other frame
// is assembled in a pooled buffer (internal/bufpool), given back once
// Write returns.
func writeFrame(w io.Writer, self netsim.NodeID, s onion.Send, room []byte) error {
	var scratch [frameHeader + 8]byte
	head := scratch[:frameHeader]
	n := frameBodyLen(s)
	binary.BigEndian.PutUint32(head, uint32(1+8+n))
	head[4] = byte(s.Kind)
	binary.BigEndian.PutUint64(head[5:], uint64(s.SID))
	switch s.Kind {
	case onion.KindConstruct, onion.KindDeliver:
		head = binary.BigEndian.AppendUint32(head, uint32(self))
	case onion.KindConstructData:
		head = binary.BigEndian.AppendUint32(head, uint32(self))
		head = binary.BigEndian.AppendUint32(head, uint32(len(s.Onion)))
	}
	if at := onion.OffsetIn(room, s.Body); at >= len(head) && len(s.Onion) == 0 {
		out := room[at-len(head) : at+len(s.Body)]
		copy(out, head)
		_, err := w.Write(out)
		return err
	}
	bp := bufpool.Get(frameHeader + n)
	_, err := w.Write(append(append(append((*bp)[:0], head...), s.Onion...), s.Body...))
	bufpool.Release(bp)
	return err
}

// readFrame parses one frame, rejecting oversize lengths. The header
// arrives in one read; the frame's buffer comes from the pool and is
// the caller's, to release or to hand on.
func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrameSize {
		return frame{}, fmt.Errorf("livenet: bad frame length %d", n)
	}
	end := frameSlack + 4 + int(n)
	bp := bufpool.Get(end + frameSlack)
	f := frame{kind: hdr[4], sid: binary.BigEndian.Uint64(hdr[5:]), buf: *bp, pooled: bp}
	f.body = f.buf[frameSlack+frameHeader : end]
	if _, err := io.ReadFull(r, f.body); err != nil {
		bufpool.Release(bp)
		return frame{}, err
	}
	return f, nil
}

// Peer is one roster entry: identity, address, and public key.
type Peer struct {
	ID     netsim.NodeID
	Addr   string
	Public onioncrypt.PublicKey
}

// Roster is the static membership and PKI of a live deployment: the
// paper assumes each node learns others' keys "through some mechanism";
// here the mechanism is explicit configuration.
type Roster struct {
	peers []Peer
	// named[id] is set when peer id's address is not an IP literal and a
	// port: net resolves a literal without blocking, a name only under a
	// context whose Done it can wait on (see dial).
	named []bool
}

// NewRoster validates and indexes the peer list. IDs must be dense in
// [0, len(peers)) — they are the onion codec's addressing.
func NewRoster(peers []Peer) (*Roster, error) {
	if len(peers) == 0 {
		return nil, errors.New("livenet: empty roster")
	}
	indexed := make([]Peer, len(peers))
	named := make([]bool, len(peers))
	seen := make([]bool, len(peers))
	for _, p := range peers {
		if p.ID < 0 || int(p.ID) >= len(peers) {
			return nil, fmt.Errorf("livenet: peer id %d outside [0,%d)", p.ID, len(peers))
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("livenet: duplicate peer id %d", p.ID)
		}
		if p.Addr == "" {
			return nil, fmt.Errorf("livenet: peer %d has no address", p.ID)
		}
		if len(p.Public) == 0 {
			return nil, fmt.Errorf("livenet: peer %d has no public key", p.ID)
		}
		seen[p.ID] = true
		indexed[p.ID] = p
		_, err := netip.ParseAddrPort(p.Addr)
		named[p.ID] = err != nil
	}
	return &Roster{peers: indexed, named: named}, nil
}

// Size returns the roster size.
func (r *Roster) Size() int { return len(r.peers) }

// Peer returns the entry for id.
func (r *Roster) Peer(id netsim.NodeID) (Peer, error) {
	if id < 0 || int(id) >= len(r.peers) {
		return Peer{}, fmt.Errorf("livenet: unknown peer %d", id)
	}
	return r.peers[id], nil
}

// Public returns a peer's public key (the onion.Directory-shaped lookup
// used when building onions).
func (r *Roster) Public(id netsim.NodeID) onioncrypt.PublicKey {
	return r.peers[id].Public
}

// dial connects to a peer by deadline. Every outbound dial in the
// package flows through here — a frame's (Node.sendCtx) and the
// readiness probe — so no dial can outlive its caller's budget.
//
// A dial nothing can cancel (ctx's Done is nil), to an IP literal, is
// bounded by a dialDeadline alone. A context that can be cancelled
// needs net's watcher goroutine to interrupt the dial, and a host name
// needs a lookup that waits on Done, so those two dial under a real
// child context, and pay for it.
func (r *Roster) dial(ctx context.Context, id netsim.NodeID, deadline time.Time) (net.Conn, error) {
	p, err := r.Peer(id)
	if err != nil {
		return nil, err
	}
	// A connection carries one frame and closes: no keep-alive set-up.
	d := net.Dialer{KeepAlive: -1}
	if ctx.Done() == nil && !r.named[id] {
		return d.DialContext(dialDeadline(deadline), "tcp", p.Addr)
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	return d.DialContext(ctx, "tcp", p.Addr)
}

// within returns the time d from now, or limit if that comes first; a
// zero limit is none.
func within(limit time.Time, d time.Duration) time.Time {
	t := time.Now().Add(d)
	if !limit.IsZero() && limit.Before(t) {
		return limit
	}
	return t
}

// dialDeadline is a context that is only a deadline: Deadline reports
// it, and Done, Err and Value are context.Background's. It is what a
// frame dials under. Nothing cancels it, so it needs no timer, channel
// or goroutine, and its Done is nil so that net starts none either: Go's
// dialer copies Deadline into the connecting socket's write deadline,
// starts the goroutine that watches a dial only for a context whose
// Done is non-nil, and adds no sub-context of its own for one address
// when the Dialer has no Timeout or Deadline. The socket alone ends the
// dial at the deadline, with a timeout error —
// TestUnansweredDialEndsAtDeadline pins that net still does. Err stays
// nil past the deadline, as it must while Done is never closed.
type dialDeadline time.Time

func (d dialDeadline) Deadline() (time.Time, bool) { return time.Time(d), true }
func (dialDeadline) Done() <-chan struct{}         { return nil }
func (dialDeadline) Err() error                    { return nil }
func (dialDeadline) Value(any) any                 { return nil }
