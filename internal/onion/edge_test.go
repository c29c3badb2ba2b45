package onion

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// inject puts a hand-made packet on the wire from→to, the way transmit
// sends a real one: as a pointer the receiving node recycles.
func inject(net *netsim.Network, from, to netsim.NodeID, p packet, size int) {
	net.Send(from, to, netsim.Message{Payload: &p, Size: size})
}

func TestRelayDropsUnknownStreams(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 31)
	// Messages referencing streams no relay knows must be dropped and
	// counted, not crash.
	inject(e.net, 0, 1, packet{Kind: KindData, SID: 42, Body: []byte("x")}, 10)
	inject(e.net, 0, 1, packet{Kind: KindReverse, SID: 43, Body: []byte("x")}, 10)
	inject(e.net, 0, 1, packet{Kind: KindAck, SID: 44}, 9)
	inject(e.net, 0, 1, packet{Kind: 99, SID: 45}, 9) // no such kind: ignored
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	st := e.nodes[1].Relay.Stats()
	if st.DroppedNoSID != 3 {
		t.Fatalf("unknown streams not counted: %+v", st)
	}
}

func TestRelayDropsGarbageOnion(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 32)
	inject(e.net, 0, 1, packet{Kind: KindConstruct, SID: 1, Onion: []byte("garbage")}, 20)
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if e.nodes[1].Relay.Stats().DroppedBad != 1 {
		t.Fatal("garbage onion not counted as bad")
	}
}

func TestRelayDropsCorruptedData(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 33)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	// Send a data message with the right SID but a corrupt body.
	inject(e.net, 0, 2, packet{Kind: KindData, SID: p.SID, Body: []byte("not a layer")}, 20)
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if e.nodes[2].Relay.Stats().DroppedBad == 0 {
		t.Fatal("corrupt payload not counted")
	}
	if len(e.received) != 0 {
		t.Fatal("corrupt payload was delivered")
	}
}

func TestDeliverToNonResponderDropped(t *testing.T) {
	// A node with no responder role must drop a delivery silently.
	eng := sim.NewEngine(34)
	lat, _ := topology.Uniform(4, 50*sim.Millisecond)
	net := netsim.New(eng, lat)
	dir, _ := NewDirectory(onioncrypt.Null{}, eng.RNG(), 4)
	mux := netsim.NewMux()
	NewNode(net, 1, dir, mux, NodeConfig{}) // no OnData
	net.SetHandler(1, mux)
	inject(net, 0, 1, packet{Kind: KindDeliver, SID: 1, Body: []byte("x")}, 10)
	eng.Run(10 * sim.Second) // must not panic
}

func TestResponderDropsGarbageDeliveries(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 35)
	inject(e.net, 0, 1, packet{Kind: KindDeliver, SID: 9, Body: []byte("junk")}, 10)
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if e.nodes[1].Responder.Dropped() != 1 {
		t.Fatal("garbage delivery not counted")
	}
	if len(e.received) != 0 {
		t.Fatal("garbage delivery reached the application")
	}
}

func TestResponderStreamSweep(t *testing.T) {
	// Responder streams expire like relay state.
	eng := sim.NewEngine(36)
	lat, _ := topology.Uniform(8, 50*sim.Millisecond)
	net := netsim.New(eng, lat)
	dir, _ := NewDirectory(onioncrypt.Null{}, eng.RNG(), 8)
	var nodes []*Node
	for i := 0; i < 8; i++ {
		mux := netsim.NewMux()
		nodes = append(nodes, NewNode(net, netsim.NodeID(i), dir, mux, NodeConfig{
			StateTTL: 30 * sim.Second,
			OnData:   func(ReplyHandle, []byte) {},
		}))
		net.SetHandler(netsim.NodeID(i), mux)
	}
	var established bool
	p, err := nodes[0].Initiator.Construct([]netsim.NodeID{2, 3}, 7, nil, func(_ *Path, ok bool) { established = ok })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10 * sim.Second)
	if !established {
		t.Fatal("construction failed")
	}
	if err := nodes[0].Initiator.SendData(p, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 5*sim.Second)
	if got := nodes[7].Responder.streams.Len(); got != 1 {
		t.Fatalf("responder streams = %d, want 1", got)
	}
	eng.Run(eng.Now() + 2*sim.Minute)
	if nodes[7].Responder.streams.Len() != 0 {
		t.Fatal("responder stream not swept after TTL")
	}
}

func TestInitiatorIgnoresForeignReverse(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 37)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	// A reverse message with the right SID but undecryptable body must
	// be ignored (corrupted or replayed).
	inject(e.net, 5, 0, packet{Kind: KindReverse, SID: p.SID, Body: []byte("bogus")}, 10)
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if len(e.replies) != 0 {
		t.Fatal("bogus reverse payload surfaced to the application")
	}
}

func TestSendDataToUnknownTargetKeyGeneration(t *testing.T) {
	// SendDataTo generates and caches per-responder keys lazily; sending
	// twice to the same new responder must reuse the cached target.
	e := newEnv(t, 10, onioncrypt.Null{}, 38)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	if err := e.nodes[0].Initiator.SendDataTo(p, 9, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.nodes[0].Initiator.SendDataTo(p, 9, []byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if got := p.keys.Targets(); got != 2 { // responder 7 (from construct) + 9
		t.Fatalf("targets = %d, want 2", got)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if len(e.received) != 2 {
		t.Fatalf("received = %d", len(e.received))
	}
}

// TestWorldsShareThePacketPool runs two worlds on two goroutines, as
// internal/experiments does, over the one packet pool: every message
// must reach its own world's responder intact and in order and be
// echoed back, also while link loss drops packets, which netsim
// recycles, and a down sender's are recycled at once. Run under -race: a
// packet recycled while a hop still read it would show as a race
// between the worlds.
func TestWorldsShareThePacketPool(t *testing.T) {
	const msgs = 300
	var wg sync.WaitGroup
	for world := 0; world < 2; world++ {
		e := newEnv(t, 8, onioncrypt.Null{}, int64(40+world))
		p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
		if !ok {
			t.Fatal("construction failed")
		}
		wg.Add(1)
		go func(world int) {
			defer wg.Done()
			want := func(i int) []byte { return []byte(fmt.Sprintf("world %d message %d", world, i)) }
			for i := 0; i < msgs; i++ {
				if err := e.nodes[0].Initiator.SendData(p, want(i), nil); err != nil {
					t.Error(err)
					return
				}
				e.eng.Run(e.eng.Now() + sim.Second)
			}
			if len(e.received) != msgs || len(e.replies) != msgs {
				t.Errorf("world %d: %d received, %d echoed back, want %d", world, len(e.received), len(e.replies), msgs)
				return
			}
			for i := range e.received {
				if !bytes.Equal(e.received[i], want(i)) || !bytes.Equal(e.replies[i], append([]byte("echo:"), want(i)...)) {
					t.Errorf("world %d message %d: responder got %q, initiator got %q", world, i, e.received[i], e.replies[i])
					return
				}
			}
			// Packets that never arrive: lost in flight, and never sent.
			e.net.SetLossRate(0.5)
			for i := 0; i < msgs; i++ {
				e.nodes[0].Initiator.SendData(p, want(i), nil)
				e.net.SetUp(0, i%2 == 0)
				e.eng.Run(e.eng.Now() + sim.Second)
			}
			for _, got := range e.received[msgs:] {
				if !bytes.HasPrefix(got, []byte(fmt.Sprintf("world %d message ", world))) {
					t.Errorf("world %d received %q", world, got)
					return
				}
			}
		}(world)
	}
	wg.Wait()
}
