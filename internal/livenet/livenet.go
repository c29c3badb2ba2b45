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
// path, not per segment (onion.Streams' key memo). Frame bodies are
// freshly allocated and owned by the handler that receives them —
// decrypted payloads alias them, so DataFunc's data is the callee's to
// keep; only the write side's staging buffers are pooled.
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

// frame is one wire message: kind, stream id, body.
type frame struct {
	kind byte
	sid  uint64
	body []byte
}

// frameHeader is length(4) | kind(1) | sid(8); length counts kind, sid
// and body.
const frameHeader = 4 + 1 + 8

// frameScratch recycles writeFrame's staging buffers. Only the write
// side is pooled: a buffer is dead once Write returns, whereas a read
// body lives on in whatever the handlers keep of it.
var frameScratch = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame emits length | kind | sid | body in a single Write, so a
// frame leaves as one packet (TCP_NODELAY is Go's default: a separate
// header write is a separate segment, and the reader wakes twice).
func writeFrame(w io.Writer, f frame) error {
	bp := frameScratch.Get().(*[]byte)
	buf := *bp
	if need := frameHeader + len(f.body); cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	binary.BigEndian.PutUint32(buf, uint32(1+8+len(f.body)))
	buf[4] = f.kind
	binary.BigEndian.PutUint64(buf[5:], f.sid)
	copy(buf[frameHeader:], f.body)
	_, err := w.Write(buf)
	if cap(buf) <= frameHeader+maxFrameSize {
		*bp = buf
		frameScratch.Put(bp)
	}
	return err
}

// readFrame parses one frame, rejecting oversize lengths. The header
// arrives in one read; the body is a fresh buffer the caller owns.
func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrameSize {
		return frame{}, fmt.Errorf("livenet: bad frame length %d", n)
	}
	body := make([]byte, n-9)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	return frame{kind: hdr[4], sid: binary.BigEndian.Uint64(hdr[5:]), body: body}, nil
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
