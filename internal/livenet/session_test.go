package livenet

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// liveSessionEnv wires a cluster with a collector on the responder.
type liveSessionEnv struct {
	c         *cluster
	mu        sync.Mutex
	delivered map[uint64][]byte
	gotCh     chan uint64
}

func newLiveSessionEnv(t *testing.T, n, responder int) *liveSessionEnv {
	t.Helper()
	e := &liveSessionEnv{delivered: make(map[uint64][]byte), gotCh: make(chan uint64, 16)}
	collector := NewLiveCollector(func(mid uint64, data []byte) {
		e.mu.Lock()
		e.delivered[mid] = data
		e.mu.Unlock()
		e.gotCh <- mid
	})
	e.c = startCluster(t, n, map[int]DataFunc{responder: collector.Handle})
	return e
}

func (e *liveSessionEnv) await(t *testing.T, mid uint64) []byte {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-e.gotCh:
			if got == mid {
				e.mu.Lock()
				defer e.mu.Unlock()
				return e.delivered[mid]
			}
		case <-deadline:
			t.Fatal("delivery timeout")
		}
	}
}

func TestLiveSessionEndToEnd(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSession([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, 2, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	if sess.AlivePaths() != 4 {
		t.Fatalf("alive paths = %d", sess.AlivePaths())
	}
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("reconstruction mismatch over live SimEra")
	}
}

func TestLiveSessionToleratesPathFailure(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSession([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	// Kill two relays: two of four paths die; k/r = 2 paths still
	// suffice for reconstruction.
	e.c.nodes[2].Close()
	e.c.nodes[4].Close()

	msg := []byte("survives two path failures")
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("reconstruction failed despite tolerated failures")
	}
	// The ack timeout must mark the dead paths.
	time.Sleep(3 * time.Second)
	if alive := sess.AlivePaths(); alive != 2 {
		t.Fatalf("alive paths = %d after two failures, want 2", alive)
	}
	// And the session keeps delivering on the survivors.
	mid2, err := sess.Send([]byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid2); string(got) != "still here" {
		t.Fatalf("second message = %q", got)
	}
}

func TestLiveSessionValidation(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	if _, err := e.c.nodes[0].NewLiveSession(nil, 5, 2, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.c.nodes[0].NewLiveSession([][]netsim.NodeID{{1}, {2}, {3}}, 5, 2, 0); err == nil {
		t.Error("k not multiple of r accepted")
	}
}

func TestLiveSessionFailsWithoutQuorum(t *testing.T) {
	e := newLiveSessionEnv(t, 8, 7)
	// Kill both relays of both paths: construction cannot reach quorum.
	e.c.nodes[1].Close()
	e.c.nodes[3].Close()
	e.c.nodes[0].cfg.ConstructTimeout = time.Second
	if _, err := e.c.nodes[0].NewLiveSession([][]netsim.NodeID{{1, 2}, {3, 4}}, 7, 1, 0); err == nil {
		t.Fatal("session without constructable paths accepted")
	}
}

func TestLiveCollectorRejectsGarbage(t *testing.T) {
	c := NewLiveCollector(func(uint64, []byte) {
		panic("garbage delivered")
	})
	// Handle must not panic or deliver on nonsense. The nil-node handle
	// would only be dereferenced by Reply on a well-formed segment, so
	// every one of these inputs must bail before acking.
	for _, b := range [][]byte{nil, {0}, {9, 1, 2}, {liveKindAck, 0, 0}} {
		c.Handle(ReplyHandle{}, b)
	}
	// A structurally valid segment with an absurd shape must also bail
	// before the ack (ReplyHandle{} would panic on use).
	bad := liveSegment{mid: 1, index: 5, total: 2, needed: 1, data: []byte("x")}
	c.Handle(ReplyHandle{}, bad.encode())
}

// TestLiveCollectorBounded pins the collector's memory: message ids —
// delivered or stuck short of m segments — age out by generation, while
// a duplicate or a late segment inside the horizon still finds its
// message.
func TestLiveCollectorBounded(t *testing.T) {
	var delivered []uint64
	c := NewLiveCollector(func(mid uint64, _ []byte) { delivered = append(delivered, mid) })
	clock := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clock }
	// The acks go nowhere: the handle's relay is blackholed, so Reply
	// seals and returns without dialling.
	cl := startCluster(t, 2, nil, func(cfg *Config) { cfg.Suite = onioncrypt.Null{} })
	node := cl.nodes[0]
	node.BlackholePeer(1, 0)
	h := ReplyHandle{node: node, sid: 1, relay: 1, key: make([]byte, onioncrypt.SymKeySize)}
	// split[m] is one message coded m-of-2.
	var split [3][]erasure.Segment
	for m := 1; m <= 2; m++ {
		code, err := erasure.New(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if split[m], err = code.Split([]byte("a message")); err != nil {
			t.Fatal(err)
		}
	}
	segment := func(mid uint64, index, needed int32) {
		c.Handle(h, liveSegment{mid: mid, index: index, total: 2, needed: needed, data: split[needed][index].Data}.encode())
	}
	size := func() int {
		return len(c.cur.done) + len(c.prev.done) + len(c.cur.pending) + len(c.prev.pending)
	}

	// One id per millisecond, alternately delivered at once (m=1) and
	// stuck at one of two segments.
	const mids, step = 200_000, time.Millisecond
	for mid := uint64(0); mid < mids; mid++ {
		clock = clock.Add(step)
		segment(mid, 0, int32(1+mid%2))
	}
	if len(delivered) != mids/2 {
		t.Fatalf("delivered %d of %d complete messages", len(delivered), mids/2)
	}
	if limit := 2 * int(collectorHorizon/step); size() > limit {
		t.Fatalf("collector holds %d ids after %d, want at most %d", size(), mids, limit)
	}

	dups := node.Metrics().Counter("recv.dup_segments").Value()
	last, stuck := uint64(mids-2), uint64(mids-1)
	clock = clock.Add(collectorHorizon - step) // across at least one rotation
	segment(last, 0, 1)
	if len(delivered) != mids/2 {
		t.Fatal("duplicate inside the horizon delivered again")
	}
	if got := node.Metrics().Counter("recv.dup_segments").Value(); got != dups+1 {
		t.Fatalf("recv.dup_segments = %d, want %d", got, dups+1)
	}
	segment(stuck, 1, 2)
	if len(delivered) != mids/2+1 || delivered[mids/2] != stuck {
		t.Fatal("second segment inside the horizon did not complete its message")
	}
	for i := uint64(0); i < 2; i++ { // two rotations forget everything before them
		clock = clock.Add(collectorHorizon)
		segment(mids+i, 0, 2)
	}
	if size() != 2 {
		t.Fatalf("collector holds %d ids two rotations later, want 2", size())
	}
}

// TestLiveSessionAsymmetricOpens counts X25519 opens across a whole
// fleet: a path costs one at each relay (its construction layer) and one
// at the responder (its sealed key), and messages cost none (§4.2).
func TestLiveSessionAsymmetricOpens(t *testing.T) {
	var opens atomic.Int64
	e := &liveSessionEnv{delivered: make(map[uint64][]byte), gotCh: make(chan uint64, 16)}
	collector := NewLiveCollector(func(mid uint64, _ []byte) { e.gotCh <- mid })
	e.c = startCluster(t, 6, map[int]DataFunc{5: collector.Handle}, func(cfg *Config) {
		cfg.Suite = countingSuite{cfg.Suite, &opens}
	})
	relayLists := [][]netsim.NodeID{{1, 2}, {3, 4}}
	// r=1: a message resolves only once both paths acked it, so no
	// stream ever has two first deliveries racing to record its key and
	// the count repeats exactly.
	sess, err := e.c.nodes[0].NewLiveSession(relayLists, 5, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 200; i++ {
		mid, err := sess.Send([]byte("one kilobyte, or thereabouts"))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Await(ctx, mid); err != nil {
			t.Fatal(err)
		}
		e.await(t, mid)
	}
	if got, want := opens.Load(), int64(len(relayLists)*(len(relayLists[0])+1)); got != want {
		t.Fatalf("asymmetric opens for 200 messages = %d, want %d", got, want)
	}
}

// countingSuite counts the asymmetric opens it is asked for.
type countingSuite struct {
	onioncrypt.Suite
	opens *atomic.Int64
}

func (c countingSuite) Open(priv onioncrypt.PrivateKey, ct []byte) ([]byte, error) {
	c.opens.Add(1)
	return c.Suite.Open(priv, ct)
}

func TestLiveConstructWithData(t *testing.T) {
	got := make(chan []byte, 2)
	onData := map[int]DataFunc{
		4: func(h ReplyHandle, data []byte) {
			got <- data
			h.Reply(append([]byte("re:"), data...))
		},
	}
	c := startCluster(t, 5, onData)
	p, err := c.nodes[0].ConstructWithData([]netsim.NodeID{1, 2, 3}, 4, []byte("first message rides the onion"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "first message rides the onion" {
			t.Fatalf("delivered %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("combined pass never delivered")
	}
	// The reply to the ridden payload comes back on the reverse path.
	select {
	case reply := <-p.Replies():
		if string(reply) != "re:first message rides the onion" {
			t.Fatalf("reply %q", reply)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
	}
	// The path is an ordinary path afterwards.
	if err := p.Send([]byte("second")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "second" {
			t.Fatalf("second delivery %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second message lost")
	}
}

func TestLiveConstructWithDataDeadRelay(t *testing.T) {
	c := startCluster(t, 5, nil)
	c.nodes[2].Close()
	c.nodes[0].cfg.ConstructTimeout = 2 * time.Second
	if _, err := c.nodes[0].ConstructWithData([]netsim.NodeID{1, 2}, 4, []byte("x")); err == nil {
		t.Fatal("combined pass through a dead relay succeeded")
	}
}

// BenchmarkLiveSessionSend measures real-socket SimEra round trips:
// split, 2 paths x 2 relays, TCP, ECIES, reconstruct, ack.
func BenchmarkLiveSessionSend(b *testing.B) {
	gotCh := make(chan uint64, 64)
	collector := NewLiveCollector(func(mid uint64, _ []byte) { gotCh <- mid })
	c := startCluster(b, 6, map[int]DataFunc{5: collector.Handle})
	sess, err := c.nodes[0].NewLiveSession([][]netsim.NodeID{{1, 2}, {3, 4}}, 5, 2, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Teardown()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mid, err := sess.Send(msg)
		if err != nil {
			b.Fatal(err)
		}
		for {
			got := <-gotCh
			if got == mid {
				break
			}
		}
	}
}

// FuzzDecodeLive feeds arbitrary bytes to the application-layer decoder
// both ends of a live path run on what came off a socket: it must fail
// cleanly or return exactly what re-encodes to its input, and a
// segment's data — which aliases the input — must lie inside it.
func FuzzDecodeLive(f *testing.F) {
	f.Add(liveSegment{mid: 7, index: 1, total: 4, needed: 2, data: []byte("segment")}.encode())
	f.Add(liveAck{mid: 7, index: 1}.encode())
	f.Add(encodeProbe(liveKindProbe, 9))
	f.Add(encodeProbe(liveKindProbeAck, 9))
	f.Add(encodeCover([]byte("padding")))
	f.Add([]byte{})
	f.Add([]byte{liveKindSegment, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, seg, ack, nonce, err := decodeLive(data)
		if err != nil {
			return
		}
		var again []byte
		switch kind {
		case liveKindSegment:
			if len(seg.data) > len(data) {
				t.Fatalf("segment data of %d bytes from %d input bytes", len(seg.data), len(data))
			}
			again = seg.encode()
		case liveKindAck:
			again = ack.encode()
		case liveKindProbe, liveKindProbeAck:
			again = encodeProbe(kind, nonce)
		case liveKindCover:
			again = data // the padding is discarded, not returned
		default:
			t.Fatalf("decoded unknown kind %d", kind)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("kind %d does not re-encode to its input", kind)
		}
	})
}
