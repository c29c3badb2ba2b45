package livenet

import (
	"bytes"
	"crypto/rand"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
)

// cluster starts n live nodes on loopback with real ECIES keys — or
// those of the suite a tweak selects.
type cluster struct {
	roster *Roster
	nodes  []*Node
}

func startCluster(t testing.TB, n int, onData map[int]DataFunc, tweak ...func(*Config)) *cluster {
	t.Helper()
	probe := Config{Suite: onioncrypt.ECIES{}}
	for _, f := range tweak {
		f(&probe)
	}
	keys := make([]onioncrypt.KeyPair, n)
	peers := make([]Peer, n)
	for i := range keys {
		kp, err := probe.Suite.GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
		peers[i] = Peer{ID: netsim.NodeID(i), Addr: "pending", Public: kp.Public}
	}
	// Two-phase start: bind listeners first, then build the final roster
	// with real addresses. Nodes hold a pointer to the same roster value,
	// so we construct it after all addresses are known by starting nodes
	// with a provisional roster and rebuilding.
	c := &cluster{}
	nodes := make([]*Node, n)
	// First pass: start with placeholder roster to learn addresses.
	prov, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		cfg := Config{
			ID:               netsim.NodeID(i),
			Roster:           prov,
			Private:          keys[i].Private,
			Suite:            onioncrypt.ECIES{},
			ConstructTimeout: 5 * time.Second,
			DialTimeout:      2 * time.Second,
		}
		if onData != nil {
			cfg.OnData = onData[i]
		}
		for _, f := range tweak {
			f(&cfg)
		}
		node, err := Start("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		peers[i].Addr = node.Addr()
	}
	// Final roster with real addresses; patch it into every node.
	final, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		node.SetRoster(final)
	}
	c.roster = final
	c.nodes = nodes
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return c
}

// readdressed returns c's roster with every peer's address replaced by
// what addr makes of it.
func (c *cluster) readdressed(t testing.TB, addr func(id netsim.NodeID, was string) string) *Roster {
	t.Helper()
	peers := slices.Clone(c.roster.peers)
	for i := range peers {
		peers[i].Addr = addr(peers[i].ID, peers[i].Addr)
	}
	r, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// awaitGoroutines waits up to five seconds for the goroutine count to
// come back to base — armed timers may still fire once, closing
// connection handlers drain — and fails the test with every stack if it
// does not.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines above the baseline of %d:\n%s",
				runtime.NumGoroutine()-base, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRosterValidation(t *testing.T) {
	if _, err := NewRoster(nil); err == nil {
		t.Error("empty roster accepted")
	}
	pub := make(onioncrypt.PublicKey, 32)
	if _, err := NewRoster([]Peer{{ID: 5, Addr: "x", Public: pub}}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := NewRoster([]Peer{{ID: 0, Addr: "x", Public: pub}, {ID: 0, Addr: "y", Public: pub}}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := NewRoster([]Peer{{ID: 0, Addr: "", Public: pub}}); err == nil {
		t.Error("missing address accepted")
	}
	if _, err := NewRoster([]Peer{{ID: 0, Addr: "x"}}); err == nil {
		t.Error("missing key accepted")
	}
}

// rawSend is the hop-layer output writeFrame lays out as exactly
// kind | sid | body: a kind that carries no in-band sender id.
func rawSend(kind onion.Kind, sid uint64, body []byte) onion.Send {
	return onion.Send{Kind: kind, SID: onion.StreamID(sid), Body: body}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := rawSend(onion.KindData, 0xdeadbeef, []byte("payload"))
	if err := writeFrame(&buf, 0, in, nil); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != kindData || out.sid != 0xdeadbeef || !bytes.Equal(out.body, in.Body) {
		t.Fatalf("frame round trip: %+v vs %+v", out, in)
	}
	if at := onion.OffsetIn(out.buf, out.body); at != frameSlack+frameHeader || cap(out.body)-len(out.body) < frameSlack {
		t.Fatalf("a read body sits at %d of its buffer with %d bytes behind it, want a header and a layer of slack in front and a layer behind",
			at, cap(out.body)-len(out.body))
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	buf.Write(hdr)
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 2, 1, 2}) // shorter than minimum (9)
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("undersize frame accepted")
	}
}

// countingWriter counts Write calls and remembers the last slice it was
// handed.
type countingWriter struct {
	bytes.Buffer
	writes int
	last   []byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.last = p
	return w.Buffer.Write(p)
}

// TestFrameOneWrite pins the framing's syscall shape on every way the
// node produces a frame: it leaves in one Write (one TCP segment for
// anything under the MSS), whatever the pooled scratch buffer held
// before; and a body that lies in the caller's buffer behind room for
// the header — an onion built behind headroom, a layer opened in place
// in a frame that was read — leaves from that buffer, not from a copy.
// The reverse direction's two ways (a responder's reply, a relay's
// reverse hop) come from the hop layer: reverseFramesOneWrite.
func TestFrameOneWrite(t *testing.T) {
	t.Run("reverse path", reverseFramesOneWrite)
	const self = netsim.NodeID(0x01020304)
	for _, size := range []int{0, 7, 1 << 17, 3} {
		body := bytes.Repeat([]byte{byte(size)}, size)
		for _, tc := range []struct {
			name    string
			kind    onion.Kind
			room    int // bytes of the caller's buffer in front of the body; -1: none given
			inPlace bool
			lead    []byte // what the frame body starts with before the payload
		}{
			{"staged", onion.KindData, -1, false, nil},
			{"built behind headroom", onion.KindData, frameHeader, size > 0, nil},
			{"forwarded from its frame", onion.KindData, frameHeader + 12, size > 0, nil},
			{"delivered from its frame", onion.KindDeliver, frameHeader + 12 + 8, size > 0, []byte{1, 2, 3, 4}},
			{"too little room", onion.KindDeliver, frameHeader + 3, false, []byte{1, 2, 3, 4}},
			{"construct", onion.KindConstruct, frameHeader + 12, false, []byte{1, 2, 3, 4, 'o', 'n'}},
			{"construct+data", onion.KindConstructData, frameHeader + 12, false, []byte{1, 2, 3, 4, 0, 0, 0, 2, 'o', 'n'}},
		} {
			in := onion.Send{Kind: tc.kind, SID: onion.StreamID(size), Body: body}
			if tc.kind == onion.KindConstruct || tc.kind == onion.KindConstructData {
				in.Onion = []byte("on")
			}
			var room []byte
			if tc.room >= 0 {
				room = make([]byte, tc.room+size)
				in.Body = room[tc.room:]
				copy(in.Body, body)
			}
			var w countingWriter
			if err := writeFrame(&w, self, in, room); err != nil {
				t.Fatal(err)
			}
			if w.writes != 1 {
				t.Fatalf("%s, %d-byte body: %d writes, want 1", tc.name, size, w.writes)
			}
			if want := frameHeader + len(tc.lead) + size; w.Len() != want {
				t.Fatalf("%s, %d-byte body: wrote %d bytes, want %d", tc.name, size, w.Len(), want)
			}
			if got := onion.OffsetIn(room, w.last) >= 0; got != tc.inPlace {
				t.Fatalf("%s, %d-byte body: written from the caller's buffer = %v, want %v", tc.name, size, got, tc.inPlace)
			}
			out, err := readFrame(&w.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			if out.kind != byte(tc.kind) || out.sid != uint64(size) || !bytes.Equal(out.body, append(tc.lead, body...)) {
				t.Fatalf("%s, %d-byte body did not round-trip", tc.name, size)
			}
		}
	}
}

// TestFrameWriteAllocs: the write side costs the allocator nothing per
// frame, whichever way the frame is produced. The small frames — acks,
// probes' reverse bodies — are most of a session's frames, and a header
// array that escaped into Write cost 2.3 KB apiece while this was sized.
func TestFrameWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	room := make([]byte, frameHeader+(1<<10))
	for name, tc := range map[string]struct {
		s    onion.Send
		room []byte
	}{
		"ack":                   {onion.Send{Kind: onion.KindAck, SID: 1}, nil},
		"reverse":               {rawSend(onion.KindReverse, 2, make([]byte, 97)), nil},
		"deliver, staged":       {onion.Send{Kind: onion.KindDeliver, SID: 3, Body: make([]byte, 200)}, nil},
		"data, from its buffer": {rawSend(onion.KindData, 4, room[frameHeader:]), room},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := writeFrame(io.Discard, 7, tc.s, tc.room); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per frame written, want 0", name, allocs)
		}
	}
	reverseFrameAllocs(t)
}

// TestFrameReadShortReads feeds readFrame a stream that trickles in one
// byte per Read, and every truncation of a valid frame.
func TestFrameReadShortReads(t *testing.T) {
	in := rawSend(onion.KindReverse, 0x0102030405060708, []byte("some reverse body"))
	var buf bytes.Buffer
	if err := writeFrame(&buf, 0, in, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	out, err := readFrame(iotest.OneByteReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != kindReverse || out.sid != 0x0102030405060708 || !bytes.Equal(out.body, in.Body) {
		t.Fatalf("one-byte reads: %+v vs %+v", out, in)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes accepted", cut, len(raw))
		}
	}
	// The body is the caller's: it shares nothing with the input.
	raw[frameHeader] ^= 0xff
	if !bytes.Equal(out.body, in.Body) {
		t.Fatal("frame body aliases the reader's buffer")
	}
}

func TestLiveEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var got []byte
	onData := map[int]DataFunc{
		4: func(h ReplyHandle, data []byte) {
			mu.Lock()
			got = append([]byte(nil), data...)
			mu.Unlock()
			h.Reply(append([]byte("re:"), data...))
		},
	}
	c := startCluster(t, 5, onData)

	// Node 0 → relays 1,2,3 → responder 4, over real TCP with real
	// X25519+AES-GCM onions.
	p, err := c.nodes[0].Construct([]netsim.NodeID{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello over actual sockets")
	if err := p.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-p.Replies():
		if !bytes.Equal(reply, append([]byte("re:"), msg...)) {
			t.Fatalf("reply = %q", reply)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no reply within 10s")
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, msg) {
		t.Fatalf("responder got %q", got)
	}
}

func TestLiveSingleRelay(t *testing.T) {
	done := make(chan []byte, 1)
	onData := map[int]DataFunc{
		2: func(h ReplyHandle, data []byte) { done <- data },
	}
	c := startCluster(t, 3, onData)
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("short path")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if string(data) != "short path" {
			t.Fatalf("got %q", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delivery timeout")
	}
}

// TestTraceSizesAreWireSizes builds 0 → 1 → 2 and sends one message:
// every traced frame's Size is its bytes on the socket, header
// included. The construct ack (1 → 0) has no body, so it traces as
// frameHeader, and the responder's delivery traces what the relay's
// write of the frame did.
func TestTraceSizesAreWireSizes(t *testing.T) {
	trace := obs.NewCollector()
	done := make(chan struct{}, 1)
	c := startCluster(t, 3, map[int]DataFunc{2: func(ReplyHandle, []byte) { done <- struct{}{} }},
		func(cfg *Config) { cfg.Tracer = trace })
	p, err := c.nodes[0].Construct([]netsim.NodeID{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("how big is this")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("delivery timeout")
	}
	// The relay traces a write once Write returns, which may be after
	// its reader has handled the frame.
	sent := func(from, to int) (out []obs.Event) {
		for _, e := range trace.Events() {
			if e.Type == obs.MsgSent && e.Node == from && e.Peer == to {
				out = append(out, e)
			}
		}
		return out
	}
	waitFor(t, "the relay's trace of the ack and the data frame", func() bool {
		return len(sent(1, 0)) == 1 && len(sent(1, 2)) == 1
	})

	if ack := sent(1, 0)[0]; ack.Size != frameHeader {
		t.Errorf("construct ack traced %d bytes, want the bare header's %d", ack.Size, frameHeader)
	}
	data := sent(1, 2)[0]
	var delivered []obs.Event
	for _, e := range trace.Events() {
		if e.Type == obs.MsgDelivered {
			delivered = append(delivered, e)
		}
	}
	if len(delivered) != 1 || delivered[0].ID != data.ID || delivered[0].Size != data.Size {
		t.Fatalf("responder traced deliveries %+v, want one of the relay's data frame %+v", delivered, data)
	}
	if data.Size <= frameHeader+len("how big is this") {
		t.Errorf("data frame traced %d bytes, fewer than its header and plaintext", data.Size)
	}
}

func TestLiveConstructTimeoutOnDeadRelay(t *testing.T) {
	c := startCluster(t, 4, nil)
	// Kill relay 2 before constructing through it.
	c.nodes[2].Close()
	start := time.Now()
	c.nodes[0].cfg.ConstructTimeout = 300 * time.Millisecond
	_, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 3)
	if err == nil {
		t.Fatal("construction through a dead relay succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestLiveValidation(t *testing.T) {
	c := startCluster(t, 4, nil)
	if _, err := c.nodes[0].Construct(nil, 3); err == nil {
		t.Error("empty relay list accepted")
	}
	if _, err := c.nodes[0].Construct([]netsim.NodeID{0}, 3); err == nil {
		t.Error("self as relay accepted")
	}
	if _, err := c.nodes[0].Construct([]netsim.NodeID{3}, 3); err == nil {
		t.Error("responder as relay accepted")
	}
	if _, err := c.nodes[0].Construct([]netsim.NodeID{99}, 3); err == nil {
		t.Error("unknown relay accepted")
	}
	if _, err := Start("127.0.0.1:0", Config{}); err == nil {
		t.Error("config without roster accepted")
	}
}

func TestLiveMultipathErasure(t *testing.T) {
	// The full SimEra idea over real sockets: erasure-code a message
	// over two disjoint live paths; the responder reconstructs from any
	// m segments. The segment framing here is test-local (the session
	// layer lives in internal/core; livenet carries opaque payloads).
	type seg struct {
		idx  byte
		data []byte
	}
	segCh := make(chan seg, 8)
	onData := map[int]DataFunc{
		6: func(h ReplyHandle, data []byte) {
			if len(data) < 1 {
				return
			}
			segCh <- seg{idx: data[0], data: append([]byte(nil), data[1:]...)}
		},
	}
	c := startCluster(t, 7, onData)

	p1, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.nodes[0].Construct([]netsim.NodeID{3, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}

	code, err := erasure.New(1, 2) // r=2 replication-style: any 1 of 2
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("erasure over real TCP")
	segs, err := code.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(append([]byte{byte(segs[0].Index)}, segs[0].Data...)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Send(append([]byte{byte(segs[1].Index)}, segs[1].Data...)); err != nil {
		t.Fatal(err)
	}

	var got []erasure.Segment
	timeout := time.After(10 * time.Second)
	for len(got) < 1 {
		select {
		case s := <-segCh:
			got = append(got, erasure.Segment{Index: int(s.idx), Data: s.data})
		case <-timeout:
			t.Fatal("no segments arrived")
		}
	}
	rec, err := code.Reconstruct(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, msg) {
		t.Fatalf("reconstructed %q", rec)
	}
}

func TestLivePathReuse(t *testing.T) {
	// §4.4 over sockets: one path, two responders.
	type rcv struct {
		node int
		data []byte
	}
	ch := make(chan rcv, 4)
	onData := map[int]DataFunc{
		4: func(h ReplyHandle, data []byte) { ch <- rcv{4, data} },
		5: func(h ReplyHandle, data []byte) { ch <- rcv{5, data} },
	}
	c := startCluster(t, 6, onData)
	p, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("to four")); err != nil {
		t.Fatal(err)
	}
	// Retarget to node 5: the path keys a fresh responder on first use.
	if err := p.sendTo(5, []byte("to five")); err != nil {
		t.Fatal(err)
	}
	seen := map[int]string{}
	timeout := time.After(10 * time.Second)
	for len(seen) < 2 {
		select {
		case r := <-ch:
			seen[r.node] = string(r.data)
		case <-timeout:
			t.Fatalf("reuse deliveries incomplete: %v", seen)
		}
	}
	if seen[4] != "to four" || seen[5] != "to five" {
		t.Fatalf("deliveries = %v", seen)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the socket-facing frame
// parser: it must fail cleanly or return a frame that fits its input,
// never panic or allocate past maxFrameSize.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, 0, rawSend(onion.KindData, 7, []byte("payload")), nil)
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if 4+9+len(fr.body) > len(data) || len(fr.body) > maxFrameSize {
			t.Fatalf("frame body of %d bytes from %d input bytes", len(fr.body), len(data))
		}
		// Re-encode under a kind that adds no sender id; the kind byte
		// is compared on its own. The body goes out from the frame's own
		// buffer when there is one.
		var out bytes.Buffer
		err = writeFrame(&out, 0, rawSend(onion.KindData, fr.sid, fr.body), fr.buf)
		if err != nil || out.Len() > len(data) || fr.kind != data[4] ||
			!bytes.Equal(out.Bytes()[:4], data[:4]) || !bytes.Equal(out.Bytes()[5:], data[5:out.Len()]) {
			t.Fatalf("accepted frame does not re-encode to its input (err %v)", err)
		}
	})
}

// TestLiveResponderStreamSweep is the live analogue of the simulator's
// TestResponderStreamSweep: a live responder's inbound stream records
// expire with the relay-state TTL instead of accumulating for the life
// of the process.
func TestLiveResponderStreamSweep(t *testing.T) {
	got := make(chan []byte, 1)
	c := startCluster(t, 4, map[int]DataFunc{3: func(_ ReplyHandle, data []byte) { got <- data }},
		func(cfg *Config) { cfg.StateTTL = 300 * time.Millisecond })
	p, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timeout")
	}
	if n := c.nodes[3].streams.Len(); n != 1 {
		t.Fatalf("responder streams = %d, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	forward := c.nodes[1].Metrics().Gauge("live.forward_states")
	for c.nodes[3].streams.Len() != 0 || forward.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("state not swept after TTL: %d responder streams, live.forward_states = %v at relay 1",
				c.nodes[3].streams.Len(), forward.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
