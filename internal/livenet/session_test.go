package livenet

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/session"
	"resilientmix/internal/sessiontest"
)

// liveSessionEnv wires a cluster with a collector on the responder.
type liveSessionEnv struct {
	c         *cluster
	mu        sync.Mutex
	delivered map[uint64][]byte
	gotCh     chan uint64
}

func newLiveSessionEnv(t *testing.T, n, responder int, tweak ...func(*Config)) *liveSessionEnv {
	t.Helper()
	e := &liveSessionEnv{delivered: make(map[uint64][]byte), gotCh: make(chan uint64, 16)}
	collector := NewLiveCollector(func(mid uint64, data []byte) {
		e.mu.Lock()
		e.delivered[mid] = bytes.Clone(data)
		e.mu.Unlock()
		e.gotCh <- mid
	})
	e.c = startCluster(t, n, map[int]DataFunc{responder: collector.Handle}, tweak...)
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

// TestLiveSessionEndToEnd runs a session over a roster of IP literals
// and over one that names every peer "localhost:port", whose frames dial
// under a real context so that the name can be looked up.
func TestLiveSessionEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		named bool
		addr  func(netsim.NodeID, string) string
	}{
		{"literal", false, func(_ netsim.NodeID, addr string) string { return addr }},
		{"localhost", true, func(_ netsim.NodeID, addr string) string {
			_, port, _ := net.SplitHostPort(addr)
			return net.JoinHostPort("localhost", port)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newLiveSessionEnv(t, 10, 9)
			r := e.c.readdressed(t, tc.addr)
			for id, named := range r.named {
				if named != tc.named {
					t.Fatalf("peer %d at %q parsed as a host name = %v", id, r.peers[id].Addr, named)
				}
			}
			for _, node := range e.c.nodes {
				node.SetRoster(r)
			}
			sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
				{1, 2}, {3, 4}, {5, 6}, {7, 8},
			}, 9, SessionOptions{R: 2, AckTimeout: 3 * time.Second})
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
		})
	}
}

func TestLiveSessionToleratesPathFailure(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{R: 2, AckTimeout: 300 * time.Millisecond})
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
	// The ack timeout must mark the dead paths, and only those.
	waitFor(t, "the ack timeout to condemn both dead paths", func() bool { return sess.AlivePaths() == 2 })
	// And the session keeps delivering on the survivors.
	mid2, err := sess.Send([]byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.await(t, mid2); string(got) != "still here" {
		t.Fatalf("second message = %q", got)
	}
}

// waitFor polls until cond holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLiveSessionConcurrentSenders uses one session from several
// goroutines at once — senders, their Awaits, reverse-path acks on the
// connection handlers, round deadlines and probe ticks on timer
// goroutines all meet at the session's one mutex. Run under -race.
func TestLiveSessionConcurrentSenders(t *testing.T) {
	var delivered atomic.Int64
	collector := NewLiveCollector(func(uint64, []byte) { delivered.Add(1) })
	c := startCluster(t, 10, map[int]DataFunc{9: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 9, SessionOptions{
		R: 2, AckTimeout: 50 * time.Millisecond, Repair: true, ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const senders, each = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mid, err := sess.Send([]byte("from several goroutines"))
				if err == nil {
					err = sess.Await(ctx, mid)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != senders*each {
		t.Fatalf("responder rebuilt %d of %d messages", got, senders*each)
	}
	reg := c.nodes[0].Metrics()
	if d, l := reg.Counter("session.messages_delivered").Value(), reg.Counter("session.messages_lost").Value(); d != senders*each || l != 0 {
		t.Fatalf("verdicts: %d delivered, %d lost", d, l)
	}
}

func TestLiveSessionValidation(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	if _, err := e.c.nodes[0].NewLiveSessionOpts(nil, 5, SessionOptions{R: 2}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}, {3}}, 5, SessionOptions{R: 2}); err == nil {
		t.Error("k not multiple of r accepted")
	}
}

func TestLiveSessionFailsWithoutQuorum(t *testing.T) {
	e := newLiveSessionEnv(t, 8, 7)
	// Kill both relays of both paths: construction cannot reach quorum.
	e.c.nodes[1].Close()
	e.c.nodes[3].Close()
	e.c.nodes[0].cfg.ConstructTimeout = 300 * time.Millisecond
	if _, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 7, SessionOptions{R: 1}); err == nil {
		t.Fatal("session without constructable paths accepted")
	}
}

// TestLiveSessionEstablishesPathsTogether: a session's k constructions
// leave together, so two slots that stay silent cost one
// ConstructTimeout, not two. The second relay of two lists is closed:
// the construction leaves the initiator, the first relay cannot hand it
// on, and no ack ever comes.
func TestLiveSessionEstablishesPathsTogether(t *testing.T) {
	const timeout = 500 * time.Millisecond
	e := newLiveSessionEnv(t, 10, 9, func(cfg *Config) { cfg.ConstructTimeout = timeout })
	e.c.nodes[2].Close()
	e.c.nodes[6].Close()
	start := time.Now()
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 9, SessionOptions{R: 2})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	if took < timeout || took >= timeout*7/4 {
		t.Fatalf("establishment with two silent slots took %v, want about one ConstructTimeout (%v)", took, timeout)
	}
	sess.mu.Lock()
	var alive [4]bool
	for i := range alive {
		alive[i] = sess.m.SlotAlive(i)
	}
	sess.mu.Unlock()
	if alive != [4]bool{false, true, false, true} {
		t.Fatalf("slots alive = %v, want the two silent ones down", alive)
	}
}

func TestLiveCollectorRejectsGarbage(t *testing.T) {
	c := NewLiveCollector(func(uint64, []byte) {
		panic("garbage delivered")
	})
	// Handle must not panic, deliver or acknowledge on nonsense, nor on
	// a structurally valid segment with an absurd shape.
	h, node := deafHandle(t)
	bad := session.Segment{MID: 1, Index: 5, Total: 2, Needed: 1, Data: []byte("x")}
	for _, b := range [][]byte{nil, {0}, {99, 1, 2}, {session.KindSegAck, 0, 0}, bad.Encode(session.KindSegment)} {
		c.Handle(h, b)
	}
	if acks := node.Metrics().Counter("live.fault.refused").Value(); acks != 0 {
		t.Fatalf("garbage was acknowledged %d times", acks)
	}
}

// deafHandle returns a reply handle whose acks go nowhere: its relay is
// blackholed at the replying node, so Reply seals and returns without
// dialling.
func deafHandle(t testing.TB) (ReplyHandle, *Node) {
	cl := startCluster(t, 2, nil, func(cfg *Config) { cfg.Suite = onioncrypt.Null{} })
	node := cl.nodes[0]
	node.BlackholePeer(1, 0)
	key, err := node.cfg.Suite.NewCipher(make([]byte, onioncrypt.SymKeySize))
	if err != nil {
		t.Fatal(err)
	}
	return ReplyHandle{node: node, sid: 1, relay: 1, key: key}, node
}

// TestLiveCollectorReassemblyCases runs the shared arrival-sequence
// table through the collector's entry point. Its third case is the
// regression for the collector that marked a message done before it
// had decoded: a segment of a disagreeing shape made every later valid
// segment a "duplicate" and the message undeliverable.
func TestLiveCollectorReassemblyCases(t *testing.T) {
	h, _ := deafHandle(t)
	for _, tc := range sessiontest.ReassemblyCases() {
		t.Run(tc.Name, func(t *testing.T) {
			var delivered [][]byte
			c := NewLiveCollector(func(_ uint64, data []byte) { delivered = append(delivered, bytes.Clone(data)) })
			for _, seg := range tc.Segments {
				c.Handle(h, seg.Encode(session.KindSegment))
			}
			if err := tc.Check(delivered); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLiveCollectorSizesByBytesHeld is the regression for a collector
// that sized the rebuilt message's buffer by the segment that completed
// the set — m times its length — before anything had compared the
// lengths: m-1 empty segments and one long one made it allocate m times
// what arrived, then fail to decode. A segment whose length disagrees
// with its message's first is now rejected on arrival.
func TestLiveCollectorSizesByBytesHeld(t *testing.T) {
	const m = 16
	h, _ := deafHandle(t)
	var delivered int
	c := NewLiveCollector(func(uint64, []byte) { delivered++ })
	for i := int32(0); i < m-1; i++ {
		c.Handle(h, session.Segment{MID: 1, Index: i, Total: m, Needed: m}.Encode(session.KindSegment))
	}
	long := session.Segment{MID: 1, Index: m - 1, Total: m, Needed: m, Data: make([]byte, 256<<10)}.Encode(session.KindSegment)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Handle(h, long)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(long)) {
		t.Errorf("a %d-byte segment completing %d empty ones made the collector allocate %d bytes", len(long), m-1, got)
	}
	if delivered != 0 {
		t.Error("segments of disagreeing lengths were delivered as a message")
	}
}

// TestLiveCollectorBounded pins the collector's memory: message ids —
// delivered or stuck short of m segments — age out a horizon or two
// after their last segment, while a duplicate or a late segment inside
// the horizon still finds its message.
func TestLiveCollectorBounded(t *testing.T) {
	var delivered []uint64
	c := NewLiveCollector(func(mid uint64, _ []byte) { delivered = append(delivered, mid) })
	clock := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clock }
	h, node := deafHandle(t)
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
		seg := session.Segment{MID: mid, Index: index, Total: 2, Needed: needed, Data: split[needed][index].Data}
		c.Handle(h, seg.Encode(session.KindSegment))
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
	if limit := 2 * int(collectorHorizon/step); c.asm.Len() > limit {
		t.Fatalf("collector holds %d ids after %d, want at most %d", c.asm.Len(), mids, limit)
	}

	dups := node.Metrics().Counter("recv.dup_segments").Value()
	last, stuck := uint64(mids-2), uint64(mids-1)
	clock = clock.Add(collectorHorizon - 2*step) // across a sweep, inside their horizon
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
	for i := uint64(0); i < 2; i++ { // two horizons on, everything before them is forgotten
		clock = clock.Add(collectorHorizon)
		segment(mids+i, 0, 2)
	}
	if c.asm.Len() > 2 {
		t.Fatalf("collector holds %d ids two horizons later, want at most the 2 just seen", c.asm.Len())
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
	sess, err := e.c.nodes[0].NewLiveSessionOpts(relayLists, 5, SessionOptions{R: 1, AckTimeout: 5 * time.Second})
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

// countingSuite counts the asymmetric opens its Openers are asked for.
type countingSuite struct {
	onioncrypt.Suite
	opens *atomic.Int64
}

type countingOpener struct {
	onioncrypt.Opener
	opens *atomic.Int64
}

func (c countingSuite) NewOpener(priv onioncrypt.PrivateKey) (onioncrypt.Opener, error) {
	o, err := c.Suite.NewOpener(priv)
	return countingOpener{o, c.opens}, err
}

func (c countingOpener) Open(ct []byte) ([]byte, error) {
	c.opens.Add(1)
	return c.Opener.Open(ct)
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
	c.nodes[0].cfg.ConstructTimeout = 300 * time.Millisecond
	if _, err := c.nodes[0].ConstructWithData([]netsim.NodeID{1, 2}, 4, []byte("x")); err == nil {
		t.Fatal("combined pass through a dead relay succeeded")
	}
}

// TestOversizeMessageRefused: a message whose segments no frame can
// carry used to be accepted, written, dropped unread by every first
// relay (readFrame's maxFrameSize) and, an AckTimeout later, reported
// lost with every healthy path condemned. It is refused before the
// machine sees it: typed error, nothing sent, all k paths alive — and
// the largest message that does fit still arrives whole.
func TestOversizeMessageRefused(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	node := e.c.nodes[0]
	sess, err := node.NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{R: 2, AckTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	framesOut := node.Metrics().Counter("live.frames_out")
	sent := framesOut.Value()

	// The onion's size is linear in its payload's; m = 2 segments of
	// ceil((len+4)/2) bytes carry a message.
	room := maxFrameSize - frameHeader - onion.PayloadOnionSize(onioncrypt.ECIES{}, 2, session.SegmentOverhead)
	largest := 2*room - 4
	for _, size := range []int{largest + 1, 3 << 20} {
		if _, err := sess.Send(make([]byte, size)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("Send of %d bytes: err = %v, want ErrFrameTooLarge", size, err)
		}
	}
	p := sess.paths[0].Load()
	if err := p.Send(make([]byte, maxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Path.Send of a frame's worth of payload: err = %v, want ErrFrameTooLarge", err)
	}
	time.Sleep(2 * sess.opts.AckTimeout) // a round timer, had one been armed, has fired
	if got := framesOut.Value(); got != sent {
		t.Fatalf("live.frames_out moved %d → %d on refused sends", sent, got)
	}
	if sess.AlivePaths() != 4 {
		t.Fatalf("alive paths = %d after refused sends, want 4", sess.AlivePaths())
	}

	msg := make([]byte, largest)
	rand.Read(msg)
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatalf("Send of the largest message that fits (%d bytes): %v", largest, err)
	}
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("the largest message that fits did not arrive whole")
	}
}

// BenchmarkLiveSessionSendBulk is the in-tree twin of the repo
// benchmark's live_bulk workload: 256 KB over 4 paths x 2 relays with
// real parity (m=2, n=4), Send then Await, closed loop. The per-byte
// costs — coding, three AES-GCM layers per hop chain, frame buffers —
// are most of it, so B/op is the number to watch.
func BenchmarkLiveSessionSendBulk(b *testing.B) {
	collector := NewLiveCollector(nil)
	c := startCluster(b, 10, map[int]DataFunc{9: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{R: 2, AckTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Teardown()
	msg := make([]byte, 256<<10)
	rand.Read(msg)
	ctx := context.Background()
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mid, err := sess.Send(msg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Await(ctx, mid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSessionSend measures real-socket SimEra round trips:
// split, 2 paths x 2 relays, TCP, ECIES, reconstruct, ack. Send then
// Await, like the bulk twin above: waiting for the responder's delivery
// instead of the ack let unresolved messages pile up to MaxInflight
// whenever acks lagged, and Send then failed with ErrFull.
func BenchmarkLiveSessionSend(b *testing.B) {
	collector := NewLiveCollector(nil)
	c := startCluster(b, 6, map[int]DataFunc{5: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 5, SessionOptions{R: 2, AckTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Teardown()
	msg := make([]byte, 1024)
	ctx := context.Background()
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mid, err := sess.Send(msg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Await(ctx, mid); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeLive feeds arbitrary bytes to the responder's entry point,
// LiveCollector.Handle, as a live node hands it whatever opened at the
// end of a path: it must not panic, must answer (with an ack) exactly
// the probes and the segments it takes in, and must deliver at most one
// message per payload. (The codec itself is fuzzed in
// internal/session.)
func FuzzDecodeLive(f *testing.F) {
	f.Add(session.Segment{MID: 7, Index: 1, Total: 4, Needed: 2, Data: []byte("segment")}.Encode(session.KindSegment))
	f.Add(session.Segment{MID: 7, Index: 0, Total: 1, Needed: 1, Data: []byte{0, 0, 0, 1, 'x'}}.Encode(session.KindSegment))
	f.Add(session.Ack{MID: 7, Index: 1}.Encode(session.KindSegAck))
	f.Add(session.Ack{MID: 9}.Encode(session.KindProbe))
	f.Add(session.EncodeCover([]byte("padding")))
	f.Add([]byte{})
	f.Add([]byte{session.KindSegment, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	h, node := deafHandle(f)
	delivered := 0
	c := NewLiveCollector(func(uint64, []byte) { delivered++ })
	refused := node.Metrics().Counter("live.fault.refused")
	f.Fuzz(func(t *testing.T, data []byte) {
		before, acks := delivered, refused.Value()
		c.Handle(h, data)
		if delivered > before+1 {
			t.Fatalf("one payload delivered %d messages", delivered-before)
		}
		msg, err := session.DecodeApp(data)
		answerable := err == nil && (msg.Kind == session.KindProbe || msg.Kind == session.KindSegment)
		if got := refused.Value() - acks; got > 1 || (got == 1 && !answerable) {
			t.Fatalf("%d acks to a payload of kind %d (decode error %v)", got, msg.Kind, err)
		}
	})
}
