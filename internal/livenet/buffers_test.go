package livenet

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"math/bits"
	mrand "math/rand"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/session"
)

// reverseWalk is a one-relay path's three hop-layer roles with a first
// payload delivered over it, for the frame tests that walk a reply back
// frame by frame: responder (node 2) → relay (node 1) → initiator.
type reverseWalk struct {
	keys    onion.PathKeys
	tab     *onion.Table
	streams *onion.Streams
	first   onion.StreamID    // the stream the initiator launched the path on
	sid     onion.StreamID    // the stream the delivery arrived on
	key     onioncrypt.Cipher // its key, as Streams.Open returned it
}

func newReverseWalk(t testing.TB, suite onioncrypt.Suite) *reverseWalk {
	t.Helper()
	rng := mrand.New(mrand.NewSource(1))
	dir, err := onion.NewDirectory(suite, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sids onion.StreamID
	env := onion.Env{Suite: suite, Rand: rng, NewSID: func() onion.StreamID { sids++; return sids }}
	const ttl = 1 << 40
	w := &reverseWalk{tab: onion.NewTable(env, dir.Private(1), ttl), streams: onion.NewStreams(env, dir.Private(2), ttl)}
	var launch onion.Send
	if launch, err = w.keys.Launch(env, dir, 0, []netsim.NodeID{1}, 2, nil, []byte("first"), true); err != nil {
		t.Fatal(err)
	}
	st := w.tab.ConstructData(0, 0, launch.SID, launch.Onion, launch.Body)
	if st.N != 2 || st.Out[0].Kind != onion.KindDeliver {
		t.Fatalf("the relay did not deliver the first payload: %+v", st)
	}
	var ok bool
	if w.key, _, ok = w.streams.Open(0, st.Out[0].SID, st.Out[0].Body); !ok {
		t.Fatal("the responder could not open the first payload")
	}
	w.first, w.sid = launch.SID, st.Out[0].SID
	return w
}

// replyFrame builds a reply as ReplyHandle.replyApp does — in scratch,
// behind room for the header — and writes it as a frame.
func (w *reverseWalk) replyFrame(t testing.TB, out io.Writer, scratch, plain []byte) {
	s, err := w.streams.AppendReply(scratch[:frameHeader], 1, w.sid, w.key, len(plain), func(b []byte) []byte { return append(b, plain...) })
	if err == nil {
		err = writeFrame(out, 2, s, scratch)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// relayFrame takes a reverse frame through the relay as Node.handle
// does and writes what the table answers from the frame's own buffer.
func (w *reverseWalk) relayFrame(t testing.TB, out io.Writer, f frame) {
	st := w.tab.Reverse(1, onion.StreamID(f.sid), f.body, f.buf)
	if st.N != 1 || st.Out[0].Kind != onion.KindReverse || st.Out[0].To != 0 {
		t.Fatalf("the relay did not forward the reverse frame: %+v", st)
	}
	if err := writeFrame(out, 1, st.Out[0], f.buf); err != nil {
		t.Fatal(err)
	}
}

// reverseFramesOneWrite is TestFrameOneWrite's way back: the responder's
// reply leaves in one Write from the scratch it was sealed in, the
// relay's frame in one Write from the buffer it was read into — a layer
// longer, nothing staged — and what arrives opens to what was replied,
// under both suites.
func reverseFramesOneWrite(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		for _, size := range []int{0, 13, 1 << 17} {
			walk := newReverseWalk(t, suite)
			plain := bytes.Repeat([]byte{byte(size) + 1}, size)
			layer := suite.SymOverhead()

			var hop1 countingWriter
			scratch := make([]byte, frameHeader+size+layer)
			walk.replyFrame(t, &hop1, scratch, plain)
			if hop1.writes != 1 || hop1.Len() != len(scratch) || onion.OffsetIn(scratch, hop1.last) != 0 {
				t.Fatalf("%s, %d bytes: the reply left in %d writes of %d bytes, from its scratch = %v",
					suite.Name(), size, hop1.writes, hop1.Len(), onion.OffsetIn(scratch, hop1.last) == 0)
			}

			f, err := readFrame(&hop1.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			var hop2 countingWriter
			walk.relayFrame(t, &hop2, f)
			if hop2.writes != 1 || hop2.Len() != frameHeader+size+2*layer || onion.OffsetIn(f.buf, hop2.last) < 0 {
				t.Fatalf("%s, %d bytes: the relay's frame left in %d writes of %d bytes, from the buffer it arrived in = %v",
					suite.Name(), size, hop2.writes, hop2.Len(), onion.OffsetIn(f.buf, hop2.last) >= 0)
			}

			last, err := readFrame(&hop2.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			from, got, ok := walk.keys.OpenReverse(last.body)
			if !ok || from != 2 || !bytes.Equal(got, plain) || last.sid != uint64(walk.first) {
				t.Fatalf("%s, %d bytes: the reply did not open at the initiator (ok %v, from %d)", suite.Name(), size, ok, from)
			}
		}
	}
}

// TestFrameSlackHoldsALayer ties frameSlack, a constant so that readFrame
// needs no suite, to what it stands for: a symmetric layer of either
// suite fits on either side of a frame that was read.
func TestFrameSlackHoldsALayer(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		if pre, post := suite.SymPrefix(), suite.SymOverhead()-suite.SymPrefix(); pre > frameSlack || post > frameSlack {
			t.Errorf("%s: a layer puts %d bytes in front and %d behind, frameSlack is %d", suite.Name(), pre, post, frameSlack)
		}
	}
}

// reverseFrameAllocs is TestFrameWriteAllocs' way back, under Null so
// that no key schedule is counted: a relay's reverse hop — seal in
// place, header, Write — and a responder's ack built in scratch allocate
// nothing.
func reverseFrameAllocs(t *testing.T) {
	walk := newReverseWalk(t, onioncrypt.Null{})
	ack := make([]byte, 13)
	scratch := make([]byte, frameHeader+len(ack)+onioncrypt.Null{}.SymOverhead())
	var wire bytes.Buffer
	walk.replyFrame(t, &wire, scratch, ack)
	f, err := readFrame(&wire)
	if err != nil {
		t.Fatal(err)
	}
	arrived := bytes.Clone(f.body)
	for name, hop := range map[string]func(){
		"responder ack": func() { walk.replyFrame(t, io.Discard, scratch, ack) },
		"relay reverse": func() {
			copy(f.body, arrived) // Reverse consumes its input
			walk.relayFrame(t, io.Discard, f)
		},
	} {
		if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
			t.Errorf("%s: %v allocations per frame, want 0", name, allocs)
		}
	}
}

// TestOversizeReplyDroppedAtRelayIsCounted: a reverse body grows a layer
// per hop, so a reply that exactly fills a frame at the responder no
// longer fits one hop later. The relay that cannot send it used to drop
// it without a count or an event; it is a failed send like any other.
func TestOversizeReplyDroppedAtRelayIsCounted(t *testing.T) {
	trace := obs.NewCollector()
	replied := make(chan error, 1)
	c := startCluster(t, 3, map[int]DataFunc{2: func(h ReplyHandle, _ []byte) {
		replied <- h.Reply(make([]byte, maxFrameSize-frameHeader-onioncrypt.ECIES{}.SymOverhead()))
	}}, func(cfg *Config) {
		if cfg.ID == 1 {
			cfg.Tracer = trace
		}
	})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-replied:
		if err != nil {
			t.Fatalf("a reply that fills a frame was refused at the responder: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timeout")
	}
	sendErrors := c.nodes[1].Metrics().Counter("live.send_errors")
	dropped := func() (n int) {
		for _, e := range trace.Events() {
			if e.Type == obs.MsgDropped && e.Reason == obs.ReasonSendFailed && e.Node == 1 && e.Peer == 0 && e.ID == p.SID {
				n++
			}
		}
		return n
	}
	// The relay has read the frame once the responder's write returned;
	// its verdict follows within a handler's run.
	waitFor(t, "the relay to count the reply it cannot forward", func() bool {
		return sendErrors.Value() == 1 && dropped() == 1
	})
	select {
	case <-p.Replies():
		t.Fatal("a reply one layer too large for a frame arrived")
	default:
	}
}

// TestRelayRecyclesForwardedFrames runs everything that crosses a relay
// at once through the same relays — a 4 × 2 session's 256 KB and 1 KB
// messages with their acks and probes, and plain Path round trips —
// with released read buffers poisoned, and compares every delivery and
// every reply byte for byte: a relay that released a buffer something
// still read from, or wrote from, would corrupt one of them or fail a
// layer's authentication and lose it. Both suites run: what a handler
// keeps of a frame differs (under Null every plaintext, a Path's reply
// included, is a piece of the frame it arrived in). The responder's
// buffers are recycled too — a delivery's frame once the collector is
// done with it, the rebuilt message once LiveDelivered has returned —
// which is why the callback clones what it keeps, and why the echo, a
// plain DataFunc whose frames are never reused, need not. The last run
// is the mutation that shows the poison reaches LiveDelivered's data: a
// callback that keeps it uncloned must find it damaged.
// (TestQueuedBuildKeepsItsSegment poisons the initiator's buffers.)
func TestRelayRecyclesForwardedFrames(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		t.Run(suite.Name(), func(t *testing.T) {
			if damaged := relayRecycles(t, suite, bytes.Clone); damaged != 0 {
				t.Fatalf("%d messages were delivered damaged", damaged)
			}
		})
	}
	t.Run("kept-delivery", func(t *testing.T) {
		if raceEnabled {
			t.Skip("data kept past the call is written by its reuse unsynchronized: the race detector reports that itself")
		}
		if damaged := relayRecycles(t, onioncrypt.ECIES{}, func(b []byte) []byte { return b }); damaged == 0 {
			t.Fatal("a LiveDelivered that kept its data uncloned never saw it poisoned")
		}
	})
}

// relayRecycles runs the traffic, the responder's callback keeping what
// keep makes of each delivery, and returns how many of the messages
// kept differ from what was sent.
func relayRecycles(t *testing.T, suite onioncrypt.Suite, keep func([]byte) []byte) (damaged int) {
	sizes := [2]int{256 << 10, 1 << 10} // interleaved
	const responder, echo = 9, 10
	var mu sync.Mutex
	delivered := make(map[uint64][]byte)
	collector := NewLiveCollector(func(mid uint64, data []byte) {
		mu.Lock()
		delivered[mid] = keep(data)
		mu.Unlock()
	})
	pathSent := make(map[string]bool)
	var echoKept [][]byte // what the echo kept, uncloned: it must still read as sent
	c := startCluster(t, 11, map[int]DataFunc{
		responder: collector.Handle,
		echo: func(h ReplyHandle, data []byte) {
			mu.Lock()
			echoKept = append(echoKept, data)
			mu.Unlock()
			if err := h.Reply(data); err != nil {
				t.Errorf("echo: %v", err)
			}
		},
	}, func(cfg *Config) { cfg.Suite = suite })
	relayLists := [][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	sess, err := c.nodes[0].NewLiveSessionOpts(relayLists, responder, SessionOptions{
		R: 2, AckTimeout: 5 * time.Second, Repair: true, ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	paths := make([]*Path, len(relayLists))
	for i, relays := range relayLists {
		if paths[i], err = c.nodes[0].Construct(relays, echo); err != nil {
			t.Fatal(err)
		}
	}

	// Probe rounds come off the session's ticker, every 20 ms, and under
	// Null the whole exchange below can finish inside one interval: wait
	// for the first round, so the probes' frames are on the relays, and
	// in the pool, before the messages' are.
	waitFor(t, "the session's first probe round", func() bool {
		return c.nodes[0].Metrics().Counter("live.repair.probes").Value() > 0
	})

	const rounds = 6
	var wg sync.WaitGroup
	sent := make(map[uint64][]byte)
	wg.Add(1)
	go func() { // the session: big and small messages in turn
		defer wg.Done()
		for i := 0; i < 2*rounds; i++ {
			msg := make([]byte, sizes[i%2])
			rand.Read(msg)
			mid, err := sess.Send(msg)
			if err != nil {
				t.Errorf("Send: %v", err)
				return
			}
			mu.Lock()
			sent[mid] = msg
			mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err = sess.Await(ctx, mid)
			cancel()
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
		}
	}()
	for i, p := range paths { // a round trip at a time on every path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				msg := make([]byte, sizes[(i+j)%2]/2)
				rand.Read(msg)
				mu.Lock()
				pathSent[string(msg)] = true
				mu.Unlock()
				if err := p.Send(msg); err != nil {
					t.Errorf("path %d: %v", i, err)
					return
				}
				select {
				case got := <-p.Replies():
					if !bytes.Equal(got, msg) {
						t.Errorf("path %d: reply %d differs from what was sent", i, j)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("path %d: reply %d lost", i, j)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return 0
	}
	// The collector acks a segment before it rebuilds the message, so
	// the last Await can return before the last callback has run.
	waitFor(t, "every acknowledged message to be delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == len(sent)
	})
	mu.Lock()
	defer mu.Unlock()
	for mid, msg := range sent {
		if !bytes.Equal(delivered[mid], msg) {
			damaged++
		}
	}
	if len(echoKept) != len(paths)*rounds {
		t.Fatalf("the echo got %d of %d payloads", len(echoKept), len(paths)*rounds)
	}
	for _, kept := range echoKept {
		if !pathSent[string(kept)] {
			t.Fatal("a payload a plain DataFunc kept was overwritten")
		}
	}
	if got := c.nodes[0].Metrics().Counter("live.repair.probes").Value(); got == 0 {
		t.Fatal("no probe crossed the relays while the messages did")
	}
	if got := sess.AlivePaths(); got != len(relayLists) {
		t.Fatalf("%d of %d paths alive: a frame was lost", got, len(relayLists))
	}
	return damaged
}

// TestReadBufClasses pins the buffer pool (internal/bufpool) at its
// class boundaries against the frames drawn from it: a buffer is at
// least the size asked for, and every size up to the largest frame
// readFrame reads has a class. Past the last class — the coded segments
// of a message near the largest a frame carries, n segments of almost a
// frame each — a buffer is a plain allocation, and Release drops it
// instead of indexing past the pools.
func TestReadBufClasses(t *testing.T) {
	largestFrame := 2*frameSlack + 4 + maxFrameSize // readFrame's buffer for a maxFrameSize frame
	for _, tc := range []struct {
		size   int
		pooled bool
	}{
		{0, true}, {1, true}, {63, true}, {64, true}, {65, true},
		{1<<10 - 1, true}, {1 << 10, true}, {1<<10 + 1, true},
		{1<<frameBits - 1, true}, {1 << frameBits, true}, {largestFrame, true},
		{2<<frameBits - 1, false}, {2 << frameBits, false}, {4 * maxFrameSize, false},
	} {
		size := tc.size
		bp := bufpool.Get(size)
		if len(*bp) < size || cap(*bp) != len(*bp) {
			t.Fatalf("Get(%d): a buffer of length %d, capacity %d", size, len(*bp), cap(*bp))
		}
		pooled := bits.Len(uint(len(*bp)))-1 <= frameBits
		if pooled != tc.pooled {
			t.Fatalf("Get(%d): a %d-byte buffer, in a class of the pool = %v", size, len(*bp), pooled)
		}
		bufpool.Release(bp)
		if !pooled && bufpool.Get(size) == bp {
			t.Fatalf("Get(%d): a buffer past every class came back from a pool", size)
		}
	}
}

// TestQueuedBuildKeepsItsSegment is the regression for a construction
// that encoded the segment riding it (§4.2) only when the session's
// goroutine got to it. A construction stalled behind a blackholed relay
// holds that goroutine for a ConstructTimeout, longer than a message's
// record lives, so by then the buffer the segment lay in was forgotten
// and given back. The segment is encoded when the machine asks: with
// given-back buffers poisoned, the message arrives whole.
//
// Slot 0 runs through relay 1, slot 1 through relay 2, 4 is the
// responder, and relay 3 is the one fresh relay, which every
// replacement picks while both slots are down.
func TestQueuedBuildKeepsItsSegment(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
	e := newLiveSessionEnv(t, 5, 4, func(cfg *Config) { cfg.ConstructTimeout = time.Second })
	init := e.c.nodes[0]
	sess, err := init.NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}}, 4, SessionOptions{
		R: 2, AckTimeout: 50 * time.Millisecond, Repair: true, ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Both paths fail one message, so its deadline condemns both slots.
	// Both replacements go through 3, and the initiator refuses each: the
	// slots are down with no construction outstanding, and with probes an
	// hour apart nothing asks for another until a message does.
	init.BlackholePeer(1, 0)
	init.BlackholePeer(3, 0)
	e.c.nodes[2].BlackholePeer(4, 0)
	if _, err := sess.Send([]byte("condemns both slots")); err != nil {
		t.Fatal(err)
	}
	failed := init.Metrics().Counter("live.repair.failed")
	waitFor(t, "both replacements to fail", func() bool { return failed.Value() == 2 })
	// The next construction through 3 stalls there.
	e.c.nodes[3].BlackholePeer(0, 0)
	init.HealPeer(3)

	// Each of the message's segments rides a construction of its slot:
	// the first stalls, the second is queued behind it, and the record is
	// forgotten before the queued construction starts.
	msg := make([]byte, 1000)
	rand.Read(msg)
	mid, err := sess.Send(msg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Await(ctx, mid); !errors.Is(err, errMessageLost) {
		t.Fatalf("Await = %v, want the message lost before its construction started", err)
	}
	e.c.nodes[3].HealPeer(0)
	e.c.nodes[2].HealPeer(4)
	if got := e.await(t, mid); !bytes.Equal(got, msg) {
		t.Fatal("the segment that rode the queued construction arrived damaged")
	}
}

// TestVerdictDuringSendKeepsTheSplit: a message's verdict can come on
// the reverse path while Send is still writing its round, and the
// Forget it brings must leave the buffer the round's later segments are
// encoded from alone until Send is done. Every frame the initiator sends
// waits out an injected latency (FaultHandler's op=latency), so over
// 4 × 1 paths with m = 2, slots 0 and 1 acknowledge — and resolve the
// message — while slots 2 and 3 are still to be written. With released
// buffers poisoned, all four segments must arrive as SplitInto made
// them, the split must be held past the verdict while Send blocks, and
// be gone once Send returns, long before the AckTimeout.
func TestVerdictDuringSendKeepsTheSplit(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
	const responder, latency, ackTimeout = 5, 150 * time.Millisecond, 5 * time.Second
	msg := make([]byte, 4<<10)
	rand.Read(msg)
	code, err := erasure.New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := code.SplitInto(nil, msg, make([]byte, code.N()*code.SegmentSize(len(msg))))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	intact := make(map[int32]bool) // by segment index: arrived as split
	collector := NewLiveCollector(nil)
	c := startCluster(t, responder+1, map[int]DataFunc{responder: func(h ReplyHandle, data []byte) {
		if app, err := session.DecodeApp(data); err == nil && app.Kind == session.KindSegment {
			i := app.Seg.Index
			mu.Lock()
			intact[i] = i >= 0 && int(i) < len(want) && bytes.Equal(app.Seg.Data, want[i].Data)
			mu.Unlock()
		}
		collector.Handle(h, data)
	}})
	init := c.nodes[0]
	sess, err := init.NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}, {3}, {4}}, responder, SessionOptions{R: 2, AckTimeout: ackTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	init.SetFaultLatency(latency)

	start := time.Now()
	returned := make(chan error, 1)
	go func() {
		_, err := sess.Send(msg)
		returned <- err
	}()
	verdicts := init.Metrics().Counter("session.messages_delivered")
	waitFor(t, "the verdict", func() bool { return verdicts.Value() == 1 })
	var held split // the one message's, as the verdict's Forget left it
	waitFor(t, "the verdict's Forget", func() bool {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		held = split{}
		for _, sp := range sess.splits {
			held = sp
		}
		return held.buf == nil || held.done
	})
	select {
	case <-returned:
		t.Fatal("Send returned before its verdict's Forget was seen: the verdict did not come mid-round, the test lost its teeth")
	default:
	}
	if held.buf == nil || !held.done || held.writing != 1 {
		t.Fatalf("after the verdict, with Send still writing, the split is %+v; want it held, done, written by Send", held)
	}
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	if n, took := splitsHeld(sess), time.Since(start); n != 0 || took > ackTimeout/5 {
		t.Fatalf("Send returned after %v holding %d splits; want none, long before the %v AckTimeout", took, n, ackTimeout)
	}
	waitFor(t, "all four segments", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(intact) == 4
	})
	mu.Lock()
	defer mu.Unlock()
	for i, ok := range intact {
		if !ok {
			t.Errorf("segment %d arrived damaged", i)
		}
	}
}

// splitsHeld is the number of messages whose Split buffer sess holds.
func splitsHeld(sess *LiveSession) int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.splits)
}

// TestLiveBulkAllocBudget holds the live per-byte path to its budget on
// BenchmarkLiveSessionSendBulk's shape (the repo benchmark's live_bulk),
// sent flat out under a 5 s AckTimeout: a 256 KB message over 4 × 2
// allocated 2.5 MB while every frame was read into a fresh buffer,
// 1 385 KB with the relays' read buffers recycled, and ≈ 590 KB with
// the responder's recycled too while a message's Split buffer came back
// only at its round deadline, so that inside the test every one was
// fresh. Given back at the verdict, it is reused by the next message,
// and what is left is per-frame small change: ≈ 28 KB in ≈ 575
// allocations. After the measured messages no Split buffer is held: the
// initiator's live heap is the messages in flight, not an AckTimeout's
// worth of delivered ones.
func TestLiveBulkAllocBudget(t *testing.T) {
	if !measureAlone(t) {
		return
	}
	const budget, allocs = 40 << 10, 600
	got, mallocs := liveAllocPerMessage(t, [][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 256<<10, 5*time.Second)
	if got > budget {
		t.Errorf("a 256 KB message allocates %d KB, budget %d KB", got>>10, budget>>10)
	}
	if mallocs > allocs {
		t.Errorf("a 256 KB message makes %d allocations, budget %d", mallocs, allocs)
	}
}

// TestLiveSmallAllocBudget is the same gate on BenchmarkLiveSessionSend's
// shape (the repo benchmark's live_small: 1 KB over 2 × 2, ECIES), where
// nothing grows with the payload and the budget is the per-frame
// bookkeeping of 12 frames — a dial, a connection and a goroutine each.
// While every frame keyed its AES-GCM layers afresh a message cost
// 65 KB, 30 of them key schedules; with the keys set up once per path
// 35, and with the responder's buffers recycled ≈ 32 KB in ≈ 460
// allocations. A frame's dial under its deadline alone, with no context,
// timer or net watcher goroutine, leaves ≈ 17 KB in ≈ 290: the count
// gate also catches a Go release whose dialer brings the watcher back.
func TestLiveSmallAllocBudget(t *testing.T) {
	if !measureAlone(t) {
		return
	}
	const budget, allocs = 20 << 10, 320
	got, mallocs := liveAllocPerMessage(t, [][]netsim.NodeID{{1, 2}, {3, 4}}, 1<<10, 5*time.Second)
	if got > budget {
		t.Errorf("a 1 KB message allocates %d bytes, budget %d", got, budget)
	}
	if mallocs > allocs {
		t.Errorf("a 1 KB message makes %d allocations, budget %d", mallocs, allocs)
	}
}

// measureAloneEnv names the one test a re-executed test binary runs
// (measureAlone).
const measureAloneEnv = "LIVENET_MEASURE_ALONE"

// measureAlone reports whether the calling allocation gate may measure
// in this process: only in a test binary re-executed to run that test
// alone. Anywhere else it runs the binary again for just this test,
// fails t if that run fails, and returns false. runtime.MemStats is
// process-wide, so a gate measured after other tests also counts what
// their leftover goroutines allocate inside its window: a 256 KB
// message read 41 KB against its 40 KB budget in full runs and
// 27–33 KB alone.
func measureAlone(t *testing.T) bool {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	if os.Getenv(measureAloneEnv) == t.Name() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), measureAloneEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	t.Logf("%s in a process of its own:\n%s", t.Name(), out)
	if err != nil {
		t.Fatalf("%s in a process of its own: %v", t.Name(), err)
	}
	return false
}

// liveAllocPerMessage returns the bytes the whole in-process fleet —
// initiator 0, the relays of the lists, a collecting responder —
// allocates per message of the given size sent and acknowledged over a
// session with r = 2 (m = k/2) and the given AckTimeout, once the pools
// are full, and the allocations it makes. Messages go flat out, one
// after the other's verdict, and each verdict must give its Split
// buffer back: once the last is in, the session holds none.
func liveAllocPerMessage(t *testing.T, relayLists [][]netsim.NodeID, size int, ackTimeout time.Duration) (allocated, mallocs uint64) {
	responder := 1 + 2*len(relayLists)
	collector := NewLiveCollector(nil)
	c := startCluster(t, responder+1, map[int]DataFunc{responder: collector.Handle})
	sess, err := c.nodes[0].NewLiveSessionOpts(relayLists, netsim.NodeID(responder), SessionOptions{R: 2, AckTimeout: ackTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	msg := make([]byte, size)
	rand.Read(msg)
	send := func(n int) {
		for i := 0; i < n; i++ {
			mid, err := sess.Send(msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(context.Background(), mid); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(20) // fill the pools
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(runs)
	runtime.ReadMemStats(&after)
	allocated = (after.TotalAlloc - before.TotalAlloc) / runs
	mallocs = (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d bytes in %d allocations per %d-byte message", allocated, mallocs, size)
	// The last verdict's Forget may still be on its way from Await's
	// wake-up; a record's deadline is an AckTimeout off.
	for wait := time.Now().Add(ackTimeout / 5); splitsHeld(sess) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("%d of %d acknowledged messages still hold their Split buffer", splitsHeld(sess), 20+runs)
		}
	}
	return allocated, mallocs
}
