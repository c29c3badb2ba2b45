package onion

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/wire"
)

// hopNet wires relay tables, responder endpoints and one initiator
// together with nothing but a queue: no engine, no sockets, no clock
// other than the now field the script advances.
type hopNet struct {
	t    *testing.T
	now  int64
	ttl  int64
	env  Env
	dir  *Directory
	tabs map[netsim.NodeID]*Table
	resp map[netsim.NodeID]*Streams

	wire      []hopMsg   // every message that crossed a link, in order
	delivered []delivery // payloads opened at responders
	acks      []StreamID // construction acks back at the initiator
	reverse   []hopMsg   // reverse bodies back at the initiator
}

type hopMsg struct {
	from netsim.NodeID
	s    Send
}

type delivery struct {
	at, relay netsim.NodeID
	sid       StreamID
	key       onioncrypt.Cipher
	plain     []byte
}

const hopInitiator netsim.NodeID = 0

func newHopNet(t *testing.T, suite onioncrypt.Suite, relays, responders []netsim.NodeID) *hopNet {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dir, err := NewDirectory(suite, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := &hopNet{
		t: t, now: 1000, ttl: 600, dir: dir,
		env:  simEnv(rng, suite, nil),
		tabs: make(map[netsim.NodeID]*Table),
		resp: make(map[netsim.NodeID]*Streams),
	}
	for _, id := range relays {
		h.tabs[id] = NewTable(h.env, dir.Private(id), h.ttl)
	}
	for _, id := range responders {
		h.resp[id] = NewStreams(h.env, dir.Private(id), h.ttl)
	}
	return h
}

// pump delivers a message and everything it causes.
func (h *hopNet) pump(from netsim.NodeID, s Send) {
	queue := []hopMsg{{from, s}}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		h.wire = append(h.wire, m)
		to, s := m.s.To, m.s
		if to == hopInitiator {
			switch s.Kind {
			case KindAck:
				h.acks = append(h.acks, s.SID)
			case KindReverse:
				h.reverse = append(h.reverse, m)
			default:
				h.t.Fatalf("initiator received kind %d", s.Kind)
			}
			continue
		}
		if s.Kind == KindDeliver {
			key, plain, ok := h.resp[to].Open(h.now, s.SID, s.Body)
			if !ok {
				h.t.Fatalf("responder %d could not open a delivery", to)
			}
			h.delivered = append(h.delivered, delivery{at: to, relay: m.from, sid: s.SID, key: key, plain: plain})
			continue
		}
		st := h.input(to, m.from, s)
		for i := 0; i < st.N; i++ {
			queue = append(queue, hopMsg{to, st.Out[i]})
		}
	}
}

// input feeds one message to a relay table.
func (h *hopNet) input(at, from netsim.NodeID, s Send) Step {
	tab := h.tabs[at]
	var st Step
	switch s.Kind {
	case KindConstruct:
		st = tab.Construct(h.now, from, s.SID, s.Onion)
	case KindConstructData:
		st = tab.ConstructData(h.now, from, s.SID, s.Onion, s.Body)
	case KindAck:
		st = tab.Ack(h.now, s.SID)
	case KindData:
		st = tab.Data(h.now, s.SID, s.Body)
	case KindReverse:
		st = tab.Reverse(h.now, s.SID, s.Body, s.Room)
	default:
		h.t.Fatalf("relay %d received kind %d", at, s.Kind)
	}
	return st
}

// sidOn returns the stream id of the n-th message of a kind that
// crossed the link from→to.
func (h *hopNet) sidOn(from, to netsim.NodeID, kind Kind, n int) StreamID {
	h.t.Helper()
	for _, m := range h.wire {
		if m.from == from && m.s.To == to && m.s.Kind == kind {
			if n == 0 {
				return m.s.SID
			}
			n--
		}
	}
	h.t.Fatalf("no message %d of kind %d on %d→%d", n, kind, from, to)
	return 0
}

// TestHopCoreScript walks the whole hop layer — construct, data, reply,
// §4.4 rebind, §4.2 construct+data, TTL expiry, wipe — over a 3-relay
// path through the core alone, under both suites.
func TestHopCoreScript(t *testing.T) {
	relays := []netsim.NodeID{2, 3, 4}
	const respA, respB netsim.NodeID = 7, 8
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		t.Run(suite.Name(), func(t *testing.T) {
			h := newHopNet(t, suite, relays, []netsim.NodeID{respA, respB})
			var keys, keys2 PathKeys
			stats := func(id netsim.NodeID) RelayStats { return h.tabs[id].Stats() }

			steps := []struct {
				name string
				run  func(t *testing.T)
			}{
				{"construct", func(t *testing.T) {
					var k PathKeys
					launch, err := k.Launch(h.env, h.dir, hopInitiator, relays, respA, nil, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					keys = k
					if launch.Kind != KindConstruct || launch.To != relays[0] {
						t.Fatalf("launch = %+v", launch)
					}
					h.pump(hopInitiator, launch)
					if len(h.acks) != 1 || h.acks[0] != launch.SID {
						t.Fatalf("acks at initiator = %v, want [%d]", h.acks, launch.SID)
					}
					for i, id := range relays {
						st := stats(id)
						wantAcks := uint64(1)
						if i == len(relays)-1 {
							wantAcks = 0 // the terminal relay originates the ack
						}
						if st.Constructed != 1 || st.AcksRelayed != wantAcks {
							t.Fatalf("relay %d stats %+v", id, st)
						}
						if f, r := h.tabs[id].States(); f != 1 || r != 1 {
							t.Fatalf("relay %d states = %d/%d", id, f, r)
						}
					}
					// Every link carries its own stream id (§4.1).
					seen := map[StreamID]bool{}
					for _, m := range h.wire {
						if m.s.Kind == KindConstruct {
							if seen[m.s.SID] {
								t.Fatalf("stream id %d reused across links", m.s.SID)
							}
							seen[m.s.SID] = true
						}
					}
				}},
				{"data", func(t *testing.T) {
					msg, err := keys.Data(h.dir, respA, []byte("hello"))
					if err != nil {
						t.Fatal(err)
					}
					h.pump(hopInitiator, msg)
					if len(h.delivered) != 1 || h.delivered[0].at != respA || !bytes.Equal(h.delivered[0].plain, []byte("hello")) {
						t.Fatalf("delivered = %+v", h.delivered)
					}
					if stats(2).DataRelayed != 1 || stats(3).DataRelayed != 1 || stats(4).Delivered != 1 {
						t.Fatalf("data stats: %+v %+v %+v", stats(2), stats(3), stats(4))
					}
					if h.resp[respA].Len() != 1 {
						t.Fatalf("responder streams = %d", h.resp[respA].Len())
					}
				}},
				{"reply", func(t *testing.T) {
					d := h.delivered[0]
					r, err := h.resp[respA].Reply(d.relay, d.sid, d.key, []byte("pong"))
					if err != nil {
						t.Fatal(err)
					}
					h.pump(respA, r)
					if len(h.reverse) != 1 || h.reverse[0].s.SID != keys.sid {
						t.Fatalf("reverse at initiator = %+v", h.reverse)
					}
					from, plain, ok := keys.OpenReverse(h.reverse[0].s.Body)
					if !ok || from != respA || !bytes.Equal(plain, []byte("pong")) {
						t.Fatalf("OpenReverse = %d %q %v", from, plain, ok)
					}
					for _, id := range relays {
						if stats(id).ReverseHops != 1 {
							t.Fatalf("relay %d reverse hops = %d", id, stats(id).ReverseHops)
						}
					}
					if _, _, ok := keys.OpenReverse([]byte("bogus")); ok {
						t.Fatal("bogus reverse body opened")
					}
				}},
				{"rebind", func(t *testing.T) {
					oldSID := h.delivered[0].sid
					msg, err := keys.Data(h.dir, respB, []byte("to-b"))
					if err != nil {
						t.Fatal(err)
					}
					h.pump(hopInitiator, msg)
					d := h.delivered[len(h.delivered)-1]
					if d.at != respB || !bytes.Equal(d.plain, []byte("to-b")) {
						t.Fatalf("rebind delivered %+v", d)
					}
					if d.sid == oldSID {
						t.Fatal("rebind kept the old downstream stream id")
					}
					if keys.Targets() != 2 {
						t.Fatalf("targets = %d, want 2", keys.Targets())
					}
					if f, r := h.tabs[4].States(); f != 1 || r != 1 {
						t.Fatalf("terminal states after rebind = %d/%d", f, r)
					}
					// The old downstream stream is gone from the terminal relay.
					before := stats(4).DroppedNoSID
					if st := h.input(4, respA, Send{Kind: KindReverse, SID: oldSID, Body: []byte("late")}); st.Drop != DropNoSID {
						t.Fatalf("reverse on the rebound stream: %+v", st)
					}
					if stats(4).DroppedNoSID != before+1 {
						t.Fatal("reverse on the rebound stream not counted")
					}
					// The new responder's reply is attributed to it: respB is
					// the path's second target, so OpenReverse tried respA's
					// key on the body first — and left it intact.
					r, err := h.resp[respB].Reply(d.relay, d.sid, d.key, []byte("from-b"))
					if err != nil {
						t.Fatal(err)
					}
					h.pump(respB, r)
					from, plain, ok := keys.OpenReverse(h.reverse[len(h.reverse)-1].s.Body)
					if !ok || from != respB || !bytes.Equal(plain, []byte("from-b")) {
						t.Fatalf("OpenReverse after rebind = %d %q %v", from, plain, ok)
					}
				}},
				{"construct+data", func(t *testing.T) {
					var k PathKeys
					launch, err := k.Launch(h.env, h.dir, hopInitiator, relays, respA, nil, []byte("first"), true)
					if err != nil {
						t.Fatal(err)
					}
					keys2 = k
					if launch.Kind != KindConstructData {
						t.Fatalf("launch kind = %d", launch.Kind)
					}
					nAcks, nDel := len(h.acks), len(h.delivered)
					h.pump(hopInitiator, launch)
					if len(h.delivered) != nDel+1 || !bytes.Equal(h.delivered[nDel].plain, []byte("first")) {
						t.Fatalf("combined pass delivered %+v", h.delivered[nDel:])
					}
					if len(h.acks) != nAcks+1 || h.acks[nAcks] != launch.SID {
						t.Fatalf("combined pass acks = %v", h.acks[nAcks:])
					}
					// The terminal relay delivers before it acks.
					var order []Kind
					for _, m := range h.wire {
						if m.from == 4 && (m.s.Kind == KindDeliver || m.s.Kind == KindAck) {
							order = append(order, m.s.Kind)
						}
					}
					if n := len(order); n < 2 || order[n-2] != KindDeliver || order[n-1] != KindAck {
						t.Fatalf("terminal relay send order = %v", order)
					}
					if stats(4).Constructed != 2 || stats(4).Delivered != 3 || stats(2).DataRelayed != 3 {
						t.Fatalf("combined pass stats: %+v %+v", stats(2), stats(4))
					}
					// The new path carries data like any other.
					msg, err := keys2.Data(h.dir, respA, []byte("second"))
					if err != nil {
						t.Fatal(err)
					}
					h.pump(hopInitiator, msg)
					if !bytes.Equal(h.delivered[len(h.delivered)-1].plain, []byte("second")) {
						t.Fatal("data on the combined-pass path not delivered")
					}
				}},
				{"ttl-expiry", func(t *testing.T) {
					// Both paths idle past the TTL, unswept: ack, data and
					// reverse on expired state are all dropped and counted —
					// none is forwarded.
					h.now += h.ttl
					s0 := keys2.sid
					s1 := h.sidOn(2, 3, KindConstructData, 0)
					s2 := h.sidOn(3, 4, KindConstructData, 0)
					msg, err := keys2.Data(h.dir, respA, []byte("too late"))
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						at netsim.NodeID
						in Send
					}{
						{2, Send{Kind: KindAck, SID: s1}},
						{3, Send{Kind: KindReverse, SID: s2, Body: []byte("x")}},
						{2, Send{Kind: KindData, SID: s0, Body: msg.Body}},
					} {
						before := stats(c.at).DroppedNoSID
						st := h.input(c.at, 9, c.in)
						if st.Drop != DropNoSID || st.N != 0 {
							t.Fatalf("kind %d on expired state at relay %d: %+v", c.in.Kind, c.at, st)
						}
						if stats(c.at).DroppedNoSID != before+1 {
							t.Fatalf("kind %d on expired state at relay %d not counted", c.in.Kind, c.at)
						}
					}
					for _, id := range relays {
						h.tabs[id].Sweep(h.now)
						if f, r := h.tabs[id].States(); f != 0 || r != 0 {
							t.Fatalf("relay %d states after sweep = %d/%d", id, f, r)
						}
					}
					if stats(4).Expired != 2 {
						t.Fatalf("terminal relay expired = %d, want 2", stats(4).Expired)
					}
					h.resp[respA].Sweep(h.now)
					h.resp[respB].Sweep(h.now)
					if h.resp[respA].Len() != 0 || h.resp[respB].Len() != 0 {
						t.Fatal("responder streams not swept after the TTL")
					}
				}},
				{"wipe", func(t *testing.T) {
					launch, err := new(PathKeys).Launch(h.env, h.dir, hopInitiator, relays, respA, nil, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					h.pump(hopInitiator, launch)
					h.tabs[3].Wipe()
					if f, r := h.tabs[3].States(); f != 0 || r != 0 {
						t.Fatalf("states after wipe = %d/%d", f, r)
					}
					if stats(3).Wiped != 1 {
						t.Fatalf("wiped = %d, want 1", stats(3).Wiped)
					}
					h.resp[respA].Wipe()
					if h.resp[respA].Len() != 0 {
						t.Fatal("responder streams survive a wipe")
					}
				}},
			}
			for _, s := range steps {
				if !t.Run(s.name, s.run) {
					t.FailNow()
				}
			}
		})
	}
}

// TestHopCoreRejects covers what the table turns away: garbage onions,
// corrupt layers on a live stream, payload refreshing the TTL, and path
// validation.
func TestHopCoreRejects(t *testing.T) {
	relays := []netsim.NodeID{2, 3, 4}
	h := newHopNet(t, onioncrypt.Null{}, relays, []netsim.NodeID{7})
	if st := h.input(2, 0, Send{Kind: KindConstruct, SID: 1, Onion: []byte("garbage")}); st.Drop != DropBad || st.N != 0 {
		t.Fatalf("garbage onion: %+v", st)
	}
	if f, _ := h.tabs[2].States(); f != 0 {
		t.Fatal("garbage onion installed state")
	}
	var keys PathKeys
	launch, err := keys.Launch(h.env, h.dir, hopInitiator, relays, 7, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h.pump(hopInitiator, launch)
	if st := h.input(2, 0, Send{Kind: KindData, SID: launch.SID, Body: []byte("not a layer")}); st.Drop != DropBad {
		t.Fatalf("corrupt layer: %+v", st)
	}
	if got := h.tabs[2].Stats().DroppedBad; got != 2 {
		t.Fatalf("DroppedBad = %d, want 2", got)
	}
	// Payload traffic keeps a state alive past its first TTL (§4.3).
	h.now += h.ttl - 1
	msg, _ := keys.Data(h.dir, 7, []byte("keepalive"))
	h.pump(hopInitiator, msg)
	h.now += h.ttl - 1
	for _, id := range relays {
		h.tabs[id].Sweep(h.now)
		if f, _ := h.tabs[id].States(); f != 1 {
			t.Fatalf("relay %d lost refreshed state", id)
		}
	}
	for _, bad := range [][]netsim.NodeID{nil, {0, 2}, {7, 2}} {
		if _, err := new(PathKeys).Launch(h.env, h.dir, hopInitiator, bad, 7, nil, nil, false); err == nil {
			t.Fatalf("relays %v accepted", bad)
		}
	}
}

// TestWrongSizeKeyRefusedAtConstruction: a construction layer whose hop
// key is not SymKeySize bytes is refused where it arrives — no state,
// no ack, nothing forwarded — instead of installing a state no frame
// could ever open; and a responder records no stream for a sealed key
// that opens to the wrong size.
func TestWrongSizeKeyRefusedAtConstruction(t *testing.T) {
	relays := []netsim.NodeID{2, 3}
	const resp netsim.NodeID = 7
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		for _, n := range []int{0, 5, onioncrypt.SymKeySize - 1, onioncrypt.SymKeySize + 1} {
			h := newHopNet(t, suite, relays, []netsim.NodeID{resp})
			rng := rand.New(rand.NewSource(int64(n)))
			good, err := suite.NewSymKey(rng)
			if err != nil {
				t.Fatal(err)
			}
			// The first relay's key is the bad one, then the second's: the
			// refusal is the hop's whose key it is, terminal or not.
			for bad, at := range relays {
				keys := [][]byte{good, good}
				keys[bad] = make([]byte, n)
				onion, err := BuildConstructOnion(suite, rng, h.dir, relays, resp, keys)
				if err != nil {
					t.Fatal(err)
				}
				for _, withData := range []bool{false, true} {
					launch := Send{To: relays[0], Kind: KindConstruct, SID: StreamID(100 + bad), Onion: onion}
					if withData {
						// A layer the first relay can open, should it get that far.
						launch.Kind = KindConstructData
						if launch.Body, err = suite.SymSeal(rng, good, make([]byte, 64)); err != nil {
							t.Fatal(err)
						}
					}
					before := h.tabs[at].Stats()
					wire := len(h.wire)
					h.pump(hopInitiator, launch)
					after := h.tabs[at].Stats()
					if after.Constructed != before.Constructed || after.DroppedBad != before.DroppedBad+1 {
						t.Fatalf("%s, %d-byte key at relay %d: stats %+v -> %+v", suite.Name(), n, at, before, after)
					}
					if f, r := h.tabs[at].States(); f != 0 || r != 0 {
						t.Fatalf("%s, %d-byte key at relay %d: %d/%d states installed", suite.Name(), n, at, f, r)
					}
					// Nothing left the refusing relay: the last message on
					// the wire is the one it received.
					if last := h.wire[len(h.wire)-1]; len(h.wire) != wire+bad+1 || last.s.To != at || len(h.acks) != 0 {
						t.Fatalf("%s, %d-byte key at relay %d: it answered %+v", suite.Name(), n, at, h.wire[wire:])
					}
					h.tabs[relays[0]].Wipe() // the good first hop's state, for the next round
				}
			}

			a := newSealedStream(t, suite, rng, h.dir.Public(resp))
			sealed, err := suite.Seal(rng, h.dir.Public(resp), make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := h.resp[resp].Open(h.now, 1, a.blob(t, sealed, "payload")); ok || h.resp[resp].Len() != 0 {
				t.Fatalf("%s: a %d-byte responder key opened a delivery or was recorded", suite.Name(), n)
			}
		}
	}
}

// TestTableConcurrent drives one locked table the way the TCP node
// does — constructs, payloads, replies and sweeps from many goroutines
// at once — for the race detector.
func TestTableConcurrent(t *testing.T) {
	suite := onioncrypt.Null{}
	dir, err := NewDirectory(suite, rand.New(rand.NewSource(3)), 8)
	if err != nil {
		t.Fatal(err)
	}
	var sids atomic.Uint64
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(4))
	env := Env{
		Suite:  suite,
		Rand:   lockedReader{&rngMu, rng},
		NewSID: func() StreamID { return StreamID(sids.Add(1)) },
		Lock:   new(sync.Mutex),
	}
	relay, responder := netsim.NodeID(2), netsim.NodeID(7)
	tab := NewTable(env, dir.Private(relay), 1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var keys PathKeys
				launch, err := keys.Launch(env, dir, netsim.NodeID(g%2), []netsim.NodeID{relay}, responder, nil, nil, false)
				if err != nil {
					t.Error(err)
					return
				}
				now := int64(i)
				if st := tab.Construct(now, 0, launch.SID, launch.Onion); st.N != 1 || st.Out[0].Kind != KindAck {
					t.Errorf("construct: %+v", st)
					return
				}
				msg, _ := keys.Data(dir, responder, []byte("x"))
				st := tab.Data(now, msg.SID, msg.Body)
				if st.N != 1 || st.Out[0].Kind != KindDeliver {
					t.Errorf("data: %+v", st)
					return
				}
				if st := tab.Reverse(now, st.Out[0].SID, []byte("r"), nil); st.N != 1 {
					t.Errorf("reverse: %+v", st)
					return
				}
				tab.Sweep(now - 10)
				tab.States()
			}
		}(g)
	}
	wg.Wait()
	if got := tab.Stats(); got.Constructed != 400 || got.Delivered != 400 || got.ReverseHops != 400 {
		t.Fatalf("stats %+v", got)
	}
}

// TestIdleWipeAllocsNothing pins that a departure of a node holding no
// path state and no streams costs no allocation and counts nothing.
// Under churn most departing nodes are idle.
func TestIdleWipeAllocsNothing(t *testing.T) {
	suite := onioncrypt.Null{}
	rng := rand.New(rand.NewSource(5))
	dir, err := NewDirectory(suite, rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(rng, suite, nil)
	tab := NewTable(env, dir.Private(1), 100)
	streams := NewStreams(env, dir.Private(2), 100)
	if n := testing.AllocsPerRun(100, tab.Wipe); n != 0 {
		t.Errorf("Table.Wipe of an empty table: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, streams.Wipe); n != 0 {
		t.Errorf("Streams.Wipe of an empty stream map: %v allocations, want 0", n)
	}
	if w := tab.Stats().Wiped; w != 0 {
		t.Errorf("Wiped = %d after wiping an empty table, want 0", w)
	}
}

// TestBusyWipeAllocsNothing: a departure of a node holding path states
// and live streams allocates nothing either. Both maps keep their room
// for the node's next life, and the states go to the free list, which
// the next constructions draw from.
func TestBusyWipeAllocsNothing(t *testing.T) {
	suite := onioncrypt.Null{}
	rng := rand.New(rand.NewSource(5))
	dir, err := NewDirectory(suite, rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(rng, suite, nil)
	tab := NewTable(env, dir.Private(1), 100)
	streams := NewStreams(env, dir.Private(2), 100)
	const n = 64
	fillTable := func() {
		for i := 0; i < n; i++ {
			st := tab.newState()
			tab.forward[StreamID(i)], tab.reverse[StreamID(n+i)] = st, st
		}
		tab.Wipe()
	}
	if a := testing.AllocsPerRun(100, fillTable); a != 0 {
		t.Errorf("Table.Wipe of %d states, and as many constructions' states and entries: %v allocations, want 0", n, a)
	}
	if w := tab.Stats().Wiped; w != 101*n {
		t.Errorf("Wiped = %d, want %d", w, 101*n)
	}
	fillStreams := func() {
		for i := 0; i < n; i++ {
			streams.live[StreamID(i)] = stream{expires: 1}
		}
		streams.Wipe()
	}
	if a := testing.AllocsPerRun(100, fillStreams); a != 0 {
		t.Errorf("Streams.Wipe of %d streams, and as many entries: %v allocations, want 0", n, a)
	}
	if streams.Len() != 0 {
		t.Errorf("%d streams left after Wipe", streams.Len())
	}
}

// lockedReader serialises a math/rand source shared by goroutines.
type lockedReader struct {
	mu *sync.Mutex
	r  *rand.Rand
}

func (l lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
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

// keyed reports whether c is key set up for use: under one reader both
// seal a probe to the same layer.
func keyed(suite onioncrypt.Suite, c onioncrypt.Cipher, key []byte) bool {
	const probe = "probe"
	want, err := suite.SymSeal(rand.New(rand.NewSource(1)), key, []byte(probe))
	if err != nil {
		return false
	}
	layer := make([]byte, len(want))
	copy(layer[suite.SymPrefix():], probe)
	return c.SealInPlace(rand.New(rand.NewSource(1)), layer) == nil && bytes.Equal(layer, want)
}

// sealedStream is one path's worth of responder-side input: the key the
// initiator sealed once, and blobs carrying it beside fresh payloads.
type sealedStream struct {
	suite       onioncrypt.Suite
	rng         *rand.Rand
	key, sealed []byte
}

func newSealedStream(t testing.TB, suite onioncrypt.Suite, rng *rand.Rand, pub onioncrypt.PublicKey) sealedStream {
	t.Helper()
	key, err := suite.NewSymKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := suite.Seal(rng, pub, key)
	if err != nil {
		t.Fatal(err)
	}
	return sealedStream{suite: suite, rng: rng, key: key, sealed: sealed}
}

// blob is the responder blob for plain, shipping the given sealed key.
func (s sealedStream) blob(t testing.TB, sealed []byte, plain string) []byte {
	t.Helper()
	ct, err := s.suite.SymSeal(s.rng, s.key, []byte(plain))
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter()
	w.Bytes32(sealed)
	w.Bytes32(ct)
	return w.Bytes()
}

// TestStreamsKeyMemo pins the responder key memo's contract: the
// asymmetric open runs once per (stream, sealed key) while the record
// lives, and a record is only ever used for byte-identical sealed keys.
func TestStreamsKeyMemo(t *testing.T) {
	const (
		sid StreamID = 42
		ttl int64    = 600
	)
	for _, tc := range []struct {
		suite onioncrypt.Suite
		flip  []int // sealed-key bytes the suite authenticates
	}{
		// Null has no integrity: only its recipient tag and length do.
		{onioncrypt.Null{}, []int{0, 31, 35}},
		{onioncrypt.ECIES{}, []int{0, 31, 32, 60, 79}},
	} {
		t.Run(tc.suite.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			kp, err := tc.suite.GenerateKeyPair(rng)
			if err != nil {
				t.Fatal(err)
			}
			var opens atomic.Int64
			env := simEnv(rng, countingSuite{tc.suite, &opens}, nil)
			a := newSealedStream(t, tc.suite, rng, kp.Public)
			b := newSealedStream(t, tc.suite, rng, kp.Public)

			// deliver opens one blob on sid and checks verdict, key,
			// plaintext and how many asymmetric opens it took.
			deliver := func(t *testing.T, s *Streams, now int64, from sealedStream, sealed []byte, wantOK bool, wantOpens int64) {
				t.Helper()
				before := opens.Load()
				key, plain, ok := s.Open(now, sid, from.blob(t, sealed, "payload"))
				if ok != wantOK {
					t.Fatalf("Open ok = %v, want %v", ok, wantOK)
				}
				if ok && (!keyed(tc.suite, key, from.key) || string(plain) != "payload") {
					t.Fatalf("Open = plain %q and a cipher that is not key %x set up", plain, from.key)
				}
				if got := opens.Load() - before; got != wantOpens {
					t.Fatalf("asymmetric opens = %d, want %d", got, wantOpens)
				}
			}

			for _, step := range []struct {
				name string
				run  func(t *testing.T, s *Streams)
			}{
				{"one open per stream", func(t *testing.T, s *Streams) {
					deliver(t, s, 1000, a, a.sealed, true, 1)
					for i := int64(1); i < 50; i++ {
						deliver(t, s, 1000+i, a, a.sealed, true, 0)
					}
				}},
				{"the record is a private copy", func(t *testing.T, s *Streams) {
					blob := a.blob(t, a.sealed, "payload")
					if _, _, ok := s.Open(1000, sid, blob); !ok {
						t.Fatal("first delivery failed")
					}
					for i := range blob {
						blob[i] = 0xff // the frame buffer is reused or freed
					}
					deliver(t, s, 1001, a, a.sealed, true, 0)
				}},
				{"a different sealed key re-opens", func(t *testing.T, s *Streams) {
					deliver(t, s, 1000, a, a.sealed, true, 1)
					deliver(t, s, 1001, b, b.sealed, true, 1) // the new key, not the recorded one
					deliver(t, s, 1002, b, b.sealed, true, 0)
					deliver(t, s, 1003, a, a.sealed, true, 1)
				}},
				{"a flipped bit fails and keeps the record", func(t *testing.T, s *Streams) {
					deliver(t, s, 1000, a, a.sealed, true, 1)
					for _, i := range tc.flip {
						bad := append([]byte(nil), a.sealed...)
						bad[i] ^= 0x01
						deliver(t, s, 1001, a, bad, false, 1)
						deliver(t, s, 1002, a, a.sealed, true, 0)
					}
					// Right sealed key, payload under another key: the
					// memo does not stand in for SymOpen.
					deliver(t, s, 1003, b, a.sealed, false, 0)
					deliver(t, s, 1004, a, a.sealed, true, 0)
				}},
				{"an expired record is not used", func(t *testing.T, s *Streams) {
					deliver(t, s, 1000, a, a.sealed, true, 1)
					deliver(t, s, 1000+ttl-1, a, a.sealed, true, 0) // refreshes the TTL
					deliver(t, s, 1000+2*ttl-2, a, a.sealed, true, 0)
					deliver(t, s, 1000+3*ttl-2, a, a.sealed, true, 1) // unswept, but past its expiry
				}},
				{"sweep and wipe drop records", func(t *testing.T, s *Streams) {
					deliver(t, s, 1000, a, a.sealed, true, 1)
					s.Sweep(1000 + ttl - 1)
					deliver(t, s, 1001, a, a.sealed, true, 0)
					s.Sweep(1001 + ttl)
					if s.Len() != 0 {
						t.Fatalf("streams after sweep = %d", s.Len())
					}
					deliver(t, s, 1002, a, a.sealed, true, 1)
					s.Wipe()
					if s.Len() != 0 {
						t.Fatalf("streams after wipe = %d", s.Len())
					}
					deliver(t, s, 1003, a, a.sealed, true, 1)
				}},
			} {
				t.Run(step.name, func(t *testing.T) {
					step.run(t, NewStreams(env, kp.Private, ttl))
				})
			}
		})
	}
}

// TestStreamsOpenConcurrent opens deliveries on shared and distinct
// streams from many goroutines, the way the TCP node's handlers do, for
// the race detector; once every stream is recorded, nothing opens
// asymmetrically again.
func TestStreamsOpenConcurrent(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.Null{}, onioncrypt.ECIES{}} {
		t.Run(suite.Name(), func(t *testing.T) {
			var rngMu sync.Mutex
			rng := rand.New(rand.NewSource(12))
			kp, err := suite.GenerateKeyPair(rng)
			if err != nil {
				t.Fatal(err)
			}
			var opens atomic.Int64
			env := Env{Suite: countingSuite{suite, &opens}, Rand: lockedReader{&rngMu, rng}, Lock: new(sync.Mutex)}
			s := NewStreams(env, kp.Private, 1000)

			const workers, rounds = 8, 40
			// Stream 0 is shared by every worker, stream g+1 is worker g's
			// own; the shared one alternates between two sealed keys.
			streams := make([]sealedStream, workers+2)
			blobs := make([][]byte, len(streams))
			for i := range streams {
				streams[i] = newSealedStream(t, suite, rng, kp.Public)
				blobs[i] = streams[i].blob(t, streams[i].sealed, "x")
			}
			run := func() {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							for _, c := range []struct {
								sid StreamID
								idx int
							}{{0, (g + i) % 2 * (workers + 1)}, {StreamID(g + 1), g + 1}} {
								// Open consumes what it is given, as it does a frame.
								key, plain, ok := s.Open(int64(i), c.sid, bytes.Clone(blobs[c.idx]))
								if !ok || !keyed(suite, key, streams[c.idx].key) || string(plain) != "x" {
									t.Errorf("worker %d round %d stream %d: ok=%v, or not the stream's key", g, i, c.sid, ok)
									return
								}
							}
							s.Sweep(int64(i) - 10)
							s.Len()
						}
					}(g)
				}
				wg.Wait()
			}
			run()
			if s.Len() != workers+1 {
				t.Fatalf("streams = %d, want %d", s.Len(), workers+1)
			}
			// Own streams are recorded now; only the alternating shared
			// stream can still miss.
			before := opens.Load()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if _, _, ok := s.Open(rounds, StreamID(g+1), bytes.Clone(blobs[g+1])); !ok {
							t.Errorf("worker %d: recorded stream failed to open", g)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := opens.Load() - before; got != 0 {
				t.Fatalf("asymmetric opens on recorded streams = %d, want 0", got)
			}
		})
	}
}

// BenchmarkStreamsOpen prices one responder delivery of a 1 KB payload:
// a hit reuses the stream's recorded key — already set up, so it
// allocates nothing — and a miss (two sealed keys alternating on one
// stream) pays the asymmetric open and the keying every time.
func BenchmarkStreamsOpen(b *testing.B) {
	for _, bc := range []struct {
		name  string
		suite onioncrypt.Suite
		miss  bool
	}{
		{"ecies/hit", onioncrypt.ECIES{}, false},
		{"ecies/miss", onioncrypt.ECIES{}, true},
		{"null/hit", onioncrypt.Null{}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			kp, err := bc.suite.GenerateKeyPair(rng)
			if err != nil {
				b.Fatal(err)
			}
			s := NewStreams(simEnv(rng, bc.suite, nil), kp.Private, 1<<40)
			plain := string(make([]byte, 1024))
			var blobs [2][]byte
			for i := range blobs {
				st := newSealedStream(b, bc.suite, rng, kp.Public)
				blobs[i] = st.blob(b, st.sealed, plain)
			}
			if !bc.miss {
				blobs[1] = blobs[0]
			}
			delivery := make([]byte, len(blobs[0])) // Open consumes it
			b.SetBytes(int64(len(plain)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(delivery, blobs[i%2])
				if _, _, ok := s.Open(int64(i), 1, delivery); !ok {
					b.Fatal("delivery did not open")
				}
			}
		})
	}
}
