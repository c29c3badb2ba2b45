package livenet

import (
	"context"
	"fmt"
	"time"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
)

// Path is an established live onion path from this node to a responder.
type Path struct {
	SID       uint64
	Relays    []netsim.NodeID
	Responder netsim.NodeID

	node    *Node
	keys    onion.PathKeys
	replies chan []byte
	// onReply, when set, receives the decrypted reverse-path payloads
	// instead of the replies channel, on the goroutine of the connection
	// that carried them (a session's paths).
	onReply func([]byte)
}

// launch vets the endpoints against the roster, keys a path — with data
// riding the construction onion when withData is set (§4.2) — sends its
// first frame and blocks until the end-to-end construction ack arrives
// or ctx ends. Both the outbound dial and the ack wait observe ctx, so
// a blackholed or silent first relay cannot stall the initiator past
// its deadline. onReply (may be nil) is in place before the first frame
// leaves, so the ack of a payload that rode the construction is not
// lost to the race with the construction ack.
func (n *Node) launch(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID, data []byte, withData bool, onReply func([]byte)) (*Path, error) {
	roster := n.roster()
	for _, id := range relays {
		if _, err := roster.Peer(id); err != nil {
			return nil, err
		}
	}
	if _, err := roster.Peer(responder); err != nil {
		return nil, err
	}
	p := &Path{
		Relays:    append([]netsim.NodeID(nil), relays...),
		Responder: responder,
		node:      n,
		replies:   make(chan []byte, 64),
		onReply:   onReply,
	}
	// The first frame's onions are built in a pooled buffer that goes
	// back once the frame is written.
	bp := bufpool.Get(onion.LaunchSize(n.env.Suite, len(relays), len(data), withData))
	first, err := p.keys.Launch(n.env, roster, n.cfg.ID, relays, responder, (*bp)[:0], data, withData)
	if err != nil {
		bufpool.Release(bp)
		return nil, err
	}
	p.SID = uint64(first.SID)
	ack := make(chan struct{})
	n.mu.Lock()
	n.acks[p.SID] = ack
	// Registered before sending, so reverse replies racing the ack of a
	// combined pass are not lost.
	n.paths[p.SID] = p
	n.mu.Unlock()

	err = n.sendCtx(ctx, first, nil)
	bufpool.Release(bp)
	if err == nil {
		select {
		case <-ack:
		case <-ctx.Done():
			err = fmt.Errorf("livenet: construction ack: %w", ctx.Err())
		}
	}
	if err != nil {
		n.mu.Lock()
		delete(n.acks, p.SID)
		delete(n.paths, p.SID)
		n.mu.Unlock()
		return nil, err
	}
	n.emit(obs.Event{
		Type: obs.PathBuilt, At: time.Now().UnixMicro(),
		Node: int(n.cfg.ID), Peer: int(p.Responder),
		ID: p.SID, Seq: int64(len(p.Relays)), Slot: -1, Hop: -1,
	})
	n.m.pathsBuilt.Inc()
	return p, nil
}

// Construct builds an onion path through the given relays to the
// responder (§4.1) and blocks until the end-to-end construction ack
// arrives or the configured timeout elapses.
func (n *Node) Construct(relays []netsim.NodeID, responder netsim.NodeID) (*Path, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ConstructTimeout)
	defer cancel()
	return n.ConstructCtx(ctx, relays, responder)
}

// ConstructCtx is Construct under a caller-supplied context: both the
// outbound dial and the ack wait observe ctx, so a blackholed or
// silent first relay cannot stall the initiator past its deadline.
func (n *Node) ConstructCtx(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID) (*Path, error) {
	return n.launch(ctx, relays, responder, nil, false, nil)
}

// ConstructWithData builds the path with the first payload riding the
// construction onion (§4.2's combined pass): the responder receives the
// message one half-trip after launch, and the method returns once the
// construction ack arrives (or the timeout elapses).
func (n *Node) ConstructWithData(relays []netsim.NodeID, responder netsim.NodeID, data []byte) (*Path, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ConstructTimeout)
	defer cancel()
	return n.ConstructWithDataCtx(ctx, relays, responder, data)
}

// ConstructWithDataCtx is ConstructWithData under a caller-supplied
// context.
func (n *Node) ConstructWithDataCtx(ctx context.Context, relays []netsim.NodeID, responder netsim.NodeID, data []byte) (*Path, error) {
	return n.launch(ctx, relays, responder, data, true, nil)
}

// Send routes an application payload down the path to its responder
// (§4.2).
func (p *Path) Send(data []byte) error { return p.sendTo(p.Responder, data) }

// sendTo routes a payload over the path to any responder, reusing the
// relays' state (§4.4).
func (p *Path) sendTo(dest netsim.NodeID, data []byte) error {
	return p.sendApp(dest, len(data), func(b []byte) []byte { return append(b, data...) })
}

// sendApp routes an application message of plainLen bytes, which plain
// appends to the slice it is handed, over the path to dest. The payload
// onion is built around the message in one pooled buffer, behind room
// for the frame header, and that buffer is what is written: the
// message's bytes are copied once between the caller and the socket. A
// message whose frame the first relay would refuse is refused here.
func (p *Path) sendApp(dest netsim.NodeID, plainLen int, plain func([]byte) []byte) error {
	size := frameHeader + p.keys.DataSize(plainLen)
	if size > maxFrameSize {
		return fmt.Errorf("%w: %d bytes over %d relays need %d of %d", ErrFrameTooLarge, plainLen, len(p.Relays), size, maxFrameSize)
	}
	bp := bufpool.Get(size)
	buf := (*bp)[:size]
	s, err := p.keys.AppendData(buf[:frameHeader], p.node.roster(), dest, plainLen, plain)
	if err == nil {
		err = p.node.send(s, buf)
	}
	bufpool.Release(bp)
	return err
}

// Replies streams decrypted reverse-path payloads (responder answers).
// The channel is buffered and a slow consumer loses the newest messages:
// a reply that finds the buffer full is dropped, not queued.
func (p *Path) Replies() <-chan []byte { return p.replies }

// Teardown forgets the path locally; relay-side state ages out via TTL.
func (p *Path) Teardown() {
	p.node.mu.Lock()
	delete(p.node.paths, p.SID)
	p.node.mu.Unlock()
}

// deliverReverse peels all layers of a reverse message and hands the
// plaintext to the path's callback or its replies channel.
func (p *Path) deliverReverse(body []byte) {
	_, pt, ok := p.keys.OpenReverse(body)
	if !ok {
		return
	}
	if p.onReply != nil {
		p.onReply(pt)
		return
	}
	select {
	case p.replies <- pt:
	default: // slow consumer: drop
	}
}
