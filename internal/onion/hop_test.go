package onion

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
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
	key       []byte
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
		env:  simEnv(rng, suite),
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
		st = tab.Reverse(h.now, s.SID, s.Body)
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
					k, launch, err := NewPathKeys(h.env, h.dir, hopInitiator, relays, respA, nil, false)
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
					// The new responder's reply is attributed to it.
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
					k, launch, err := NewPathKeys(h.env, h.dir, hopInitiator, relays, respA, []byte("first"), true)
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
					_, launch, err := NewPathKeys(h.env, h.dir, hopInitiator, relays, respA, nil, false)
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
	keys, launch, err := NewPathKeys(h.env, h.dir, hopInitiator, relays, 7, nil, false)
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
		if _, _, err := NewPathKeys(h.env, h.dir, hopInitiator, bad, 7, nil, false); err == nil {
			t.Fatalf("relays %v accepted", bad)
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
				keys, launch, err := NewPathKeys(env, dir, netsim.NodeID(g%2), []netsim.NodeID{relay}, responder, nil, false)
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
				if st := tab.Reverse(now, st.Out[0].SID, []byte("r")); st.N != 1 {
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
