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
// roster and fault-injection admission, dial retries, metrics and trace
// events.
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
// path, not per segment (onion.Streams' key memo).
//
// A segment is in one buffer per hop. The initiator encodes it straight
// into its payload onion, built and sealed in place in a pooled buffer
// behind room for the frame header, and writes that buffer. A relay
// reads a frame into one fresh buffer, opens its layer in place, writes
// the next header over the bytes in front of what is left and sends the
// same buffer on; the terminal relay does the same for the delivery.
// The responder opens in place too, so DataFunc's data is a piece of
// the frame it arrived in — which is why read buffers are fresh, never
// pooled: they are the handler's, and the callee's to keep. Only the
// write side is pooled: the initiator's onion buffer and the scratch
// that small frames (construct, ack, reverse) are assembled in.
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
	"slices"
	"sync"
	"time"

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
// allocations.
const maxFrameSize = 1 << 20

// ErrFrameTooLarge is returned for a payload whose frame, header
// included, would exceed maxFrameSize: the peer would drop it unread.
var ErrFrameTooLarge = errors.New("livenet: payload does not fit a frame")

// frame is one inbound wire message: kind, stream id, body. body is
// buf[frameHeader:], and buf is the handler's alone: a layer of body
// opens in place, and what is forwarded of it leaves from buf with the
// new header written over the bytes in front of it (writeFrame).
type frame struct {
	kind byte
	sid  uint64
	body []byte
	buf  []byte
}

// frameHeader is length(4) | kind(1) | sid(8); length counts kind, sid
// and body.
const frameHeader = 4 + 1 + 8

// frameScratch recycles the write side's buffers: the one an initiator
// builds a payload onion in, behind frameHeader bytes for the header,
// and the one writeFrame assembles every other frame in. Only the write
// side is pooled: a buffer is dead once Write returns, whereas a read
// body lives on in whatever the handlers keep of it.
var frameScratch = sync.Pool{New: func() any { return new([]byte) }}

// putScratch returns a buffer to frameScratch through the pointer it
// came out by.
func putScratch(bp *[]byte, buf []byte) {
	if cap(buf) <= frameHeader+maxFrameSize {
		*bp = buf
		frameScratch.Put(bp)
	}
}

// offsetIn returns i such that b is buf[i:i+len(b)], or -1 when b is
// empty or is not a sub-slice of buf reaching as far back as buf does.
// A sub-slice keeps its parent's end of capacity, so the capacities
// give the only candidate and the element addresses confirm it.
func offsetIn(buf, b []byte) int {
	i := cap(buf) - cap(b)
	if len(b) == 0 || i < 0 || i+len(b) > len(buf) || &buf[i] != &b[0] {
		return -1
	}
	return i
}

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
// front of it — a payload onion built behind headroom, or what a layer
// opened in place left of an inbound frame — the header is written
// there and the frame leaves from room: the payload is not copied.
// Every other frame is assembled in pooled scratch.
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
	if at := offsetIn(room, s.Body); at >= len(head) && len(s.Onion) == 0 {
		out := room[at-len(head) : at+len(s.Body)]
		copy(out, head)
		_, err := w.Write(out)
		return err
	}
	bp := frameScratch.Get().(*[]byte)
	out := slices.Grow((*bp)[:0], frameHeader+n)
	out = append(append(append(out, head...), s.Onion...), s.Body...)
	_, err := w.Write(out)
	putScratch(bp, out)
	return err
}

// readFrame parses one frame, rejecting oversize lengths. The header
// arrives in one read; the frame's buffer is fresh and the caller's.
func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrameSize {
		return frame{}, fmt.Errorf("livenet: bad frame length %d", n)
	}
	buf := make([]byte, 4+n)
	body := buf[frameHeader:]
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	return frame{kind: hdr[4], sid: binary.BigEndian.Uint64(hdr[5:]), body: body, buf: buf}, nil
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
}

// NewRoster validates and indexes the peer list. IDs must be dense in
// [0, len(peers)) — they are the onion codec's addressing.
func NewRoster(peers []Peer) (*Roster, error) {
	if len(peers) == 0 {
		return nil, errors.New("livenet: empty roster")
	}
	indexed := make([]Peer, len(peers))
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
	}
	return &Roster{peers: indexed}, nil
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

// dialContext connects to a peer under the caller's context deadline —
// every outbound dial in the package flows through here, so no dial
// can outlive its caller's budget.
func (r *Roster) dialContext(ctx context.Context, id netsim.NodeID) (net.Conn, error) {
	p, err := r.Peer(id)
	if err != nil {
		return nil, err
	}
	// A connection carries one frame and closes: no keep-alive set-up.
	d := net.Dialer{KeepAlive: -1}
	return d.DialContext(ctx, "tcp", p.Addr)
}

// dial connects to a peer with a bounded timeout.
func (r *Roster) dial(id netsim.NodeID, timeout time.Duration) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.dialContext(ctx, id)
}
