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
// On top of that sits the live session layer (session.go): LiveSession
// erasure-codes messages over k live paths, collects end-to-end acks,
// and — with SessionOptions.Repair — probes path liveness, condemns
// silent paths, rebuilds them through fresh relays and retransmits
// unacknowledged segments (§4.5); LiveCollector is the responder side.
//
// Scope: static roster (the PKI directory with addresses) and one TCP
// connection per frame. Gossip membership, the liveness predictor and
// biased mix choice remain simulation-side.
package livenet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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

// writeFrame emits length | kind | sid | body.
func writeFrame(w io.Writer, f frame) error {
	hdr := make([]byte, 4+1+8)
	binary.BigEndian.PutUint32(hdr, uint32(1+8+len(f.body)))
	hdr[4] = f.kind
	binary.BigEndian.PutUint64(hdr[5:], f.sid)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(f.body)
	return err
}

// readFrame parses one frame, rejecting oversize lengths.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxFrameSize {
		return frame{}, fmt.Errorf("livenet: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, err
	}
	return frame{
		kind: buf[0],
		sid:  binary.BigEndian.Uint64(buf[1:9]),
		body: buf[9:],
	}, nil
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
	var d net.Dialer
	return d.DialContext(ctx, "tcp", p.Addr)
}

// dial connects to a peer with a bounded timeout.
func (r *Roster) dial(id netsim.NodeID, timeout time.Duration) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.dialContext(ctx, id)
}
