package livenet

import (
	"bytes"
	"context"
	"crypto/rand"
	"io"
	mrand "math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
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
	if w.keys, launch, err = onion.NewPathKeys(env, dir, 0, []netsim.NodeID{1}, 2, []byte("first"), true); err != nil {
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
// included, is a piece of the frame it arrived in).
func TestRelayRecyclesForwardedFrames(t *testing.T) {
	poisonReleased.Store(true)
	t.Cleanup(func() { poisonReleased.Store(false) })
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		t.Run(suite.Name(), func(t *testing.T) { relayRecycles(t, suite) })
	}
}

func relayRecycles(t *testing.T, suite onioncrypt.Suite) {
	sizes := [2]int{256 << 10, 1 << 10} // interleaved
	const responder, echo = 9, 10
	var mu sync.Mutex
	delivered := make(map[uint64][]byte)
	collector := NewLiveCollector(func(mid uint64, data []byte) {
		mu.Lock()
		delivered[mid] = data
		mu.Unlock()
	})
	c := startCluster(t, 11, map[int]DataFunc{
		responder: collector.Handle,
		echo: func(h ReplyHandle, data []byte) {
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
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != len(sent) {
		t.Fatalf("%d of %d messages delivered", len(delivered), len(sent))
	}
	for mid, msg := range sent {
		if !bytes.Equal(delivered[mid], msg) {
			t.Fatalf("message %d (%d bytes) was delivered damaged", mid, len(msg))
		}
	}
	if got := c.nodes[0].Metrics().Counter("live.repair.probes").Value(); got == 0 {
		t.Fatal("no probe crossed the relays while the messages did")
	}
	if got := sess.AlivePaths(); got != len(relayLists) {
		t.Fatalf("%d of %d paths alive: a frame was lost", got, len(relayLists))
	}
}

// TestLiveBulkAllocBudget holds the live per-byte path to its budget on
// BenchmarkLiveSessionSendBulk's shape (the repo benchmark's live_bulk):
// a 256 KB message over 4 × 2 allocated 2.5 MB while every frame was
// read into a fresh buffer; with the relays' eight 128 KB read buffers
// recycled it is Split's 512 KB, Reconstruct's 256 KB, the four
// deliveries the responder keeps and small change (measures 1 385 KB).
func TestLiveBulkAllocBudget(t *testing.T) {
	const budget = 1500 << 10
	got := liveAllocPerMessage(t, [][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 256<<10)
	if got > budget {
		t.Errorf("a 256 KB message allocates %d KB, budget %d KB", got>>10, budget>>10)
	}
}

// TestLiveSmallAllocBudget is the same gate on BenchmarkLiveSessionSend's
// shape (the repo benchmark's live_small: 1 KB over 2 × 2, ECIES), where
// nothing grows with the payload and the budget is the per-frame
// bookkeeping of 12 frames — a dial, a connection and a goroutine each.
// While every frame keyed its AES-GCM layers afresh a message cost
// 65 KB, 30 of them key schedules; with the keys set up once per path
// it measures 35.
func TestLiveSmallAllocBudget(t *testing.T) {
	const budget = 42 << 10
	got := liveAllocPerMessage(t, [][]netsim.NodeID{{1, 2}, {3, 4}}, 1<<10)
	if got > budget {
		t.Errorf("a 1 KB message allocates %d bytes, budget %d", got, budget)
	}
}

// liveAllocPerMessage returns the bytes the whole in-process fleet —
// initiator 0, the relays of the lists, a collecting responder —
// allocates per message of the given size sent and acknowledged over a
// session with r = 2 (m = k/2), once the pools are full.
func liveAllocPerMessage(t *testing.T, relayLists [][]netsim.NodeID, size int) uint64 {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	responder := 1 + 2*len(relayLists)
	collector := NewLiveCollector(nil)
	c := startCluster(t, responder+1, map[int]DataFunc{responder: collector.Handle})
	sess, err := c.nodes[0].NewLiveSession(relayLists, netsim.NodeID(responder), 2, 5*time.Second)
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
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per %d-byte message", got, size)
	return got
}
