package onion

import (
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

func TestRelayDropsUnknownStreams(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 31)
	// Messages referencing streams no relay knows must be dropped and
	// counted, not crash.
	e.net.Send(0, 1, netsim.Message{Payload: DataMsg{SID: 42, Body: []byte("x")}, Size: 10})
	e.net.Send(0, 1, netsim.Message{Payload: ReverseMsg{SID: 43, Body: []byte("x")}, Size: 10})
	e.net.Send(0, 1, netsim.Message{Payload: ConstructAck{SID: 44}, Size: 9})
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	st := e.nodes[1].Relay.Stats()
	if st.DroppedNoSID < 2 {
		t.Fatalf("unknown streams not counted: %+v", st)
	}
}

func TestRelayDropsGarbageOnion(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 32)
	e.net.Send(0, 1, netsim.Message{Payload: ConstructMsg{SID: 1, Onion: []byte("garbage")}, Size: 20})
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
	e.net.Send(0, 2, netsim.Message{Payload: DataMsg{SID: p.SID, Body: []byte("not a layer")}, Size: 20})
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if e.nodes[2].Relay.Stats().DroppedBad == 0 {
		t.Fatal("corrupt payload not counted")
	}
	if len(e.received) != 0 {
		t.Fatal("corrupt payload was delivered")
	}
}

func TestDeliverToNonResponderDropped(t *testing.T) {
	// A node with no responder role must drop DeliverMsg silently.
	eng := sim.NewEngine(34)
	lat, _ := topology.Uniform(4, 50*sim.Millisecond)
	net := netsim.New(eng, lat)
	dir, _ := NewDirectory(onioncrypt.Null{}, eng.RNG(), 4)
	mux := netsim.NewMux()
	NewNode(net, 1, dir, mux, NodeConfig{}) // no OnData
	net.SetHandler(1, mux)
	net.Send(0, 1, netsim.Message{Payload: DeliverMsg{SID: 1, Body: []byte("x")}, Size: 10})
	eng.Run(10 * sim.Second) // must not panic
}

func TestResponderDropsGarbageDeliveries(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 35)
	e.net.Send(0, 1, netsim.Message{Payload: DeliverMsg{SID: 9, Body: []byte("junk")}, Size: 10})
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
	e.net.Send(5, 0, netsim.Message{Payload: ReverseMsg{SID: p.SID, Body: []byte("bogus")}, Size: 10})
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
