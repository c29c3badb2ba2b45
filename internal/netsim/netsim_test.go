package netsim

import (
	"fmt"
	"slices"
	"testing"

	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

func newTestNet(t *testing.T, n int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	lat, err := topology.Uniform(n, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, lat)
}

func TestSendDeliver(t *testing.T) {
	eng, net := newTestNet(t, 4)
	var gotFrom NodeID
	var gotPayload any
	net.SetHandler(2, HandlerFunc(func(from NodeID, msg Message) {
		gotFrom = from
		gotPayload = msg.Payload
	}))
	if !net.Send(1, 2, Message{Payload: "hello", Size: 10}) {
		t.Fatal("Send returned false for an up sender")
	}
	eng.RunAll()
	if gotFrom != 1 || gotPayload != "hello" {
		t.Fatalf("delivered from=%v payload=%v", gotFrom, gotPayload)
	}
	if eng.Now() != 50*sim.Millisecond {
		t.Fatalf("delivery at %v, want one-way latency 50ms", eng.Now())
	}
	s := net.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Bytes != 10 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSendFromDownNode(t *testing.T) {
	eng, net := newTestNet(t, 4)
	net.SetUp(1, false)
	delivered := false
	net.SetHandler(2, HandlerFunc(func(NodeID, Message) { delivered = true }))
	if net.Send(1, 2, Message{Size: 5}) {
		t.Fatal("Send from a down node returned true")
	}
	eng.RunAll()
	if delivered {
		t.Fatal("message from a down node was delivered")
	}
	s := net.Stats()
	if s.DroppedSender != 1 || s.Bytes != 0 {
		t.Fatalf("stats = %+v; down sender must not consume bandwidth", s)
	}
}

func TestReceiverDownAtArrival(t *testing.T) {
	eng, net := newTestNet(t, 4)
	delivered := false
	net.SetHandler(2, HandlerFunc(func(NodeID, Message) { delivered = true }))
	net.Send(1, 2, Message{Size: 7})
	// The receiver dies while the message is in flight.
	eng.Schedule(10*sim.Millisecond, func() { net.SetUp(2, false) })
	eng.RunAll()
	if delivered {
		t.Fatal("message delivered to a node that was down at arrival")
	}
	s := net.Stats()
	if s.DroppedReceiver != 1 {
		t.Fatalf("DroppedReceiver = %d, want 1", s.DroppedReceiver)
	}
	if s.Bytes != 7 {
		t.Fatalf("Bytes = %d; in-flight bytes still traverse the link", s.Bytes)
	}
}

func TestReceiverRecoversBeforeArrival(t *testing.T) {
	eng, net := newTestNet(t, 4)
	delivered := false
	net.SetHandler(2, HandlerFunc(func(NodeID, Message) { delivered = true }))
	net.SetUp(2, false)
	net.Send(1, 2, Message{Size: 1})
	eng.Schedule(10*sim.Millisecond, func() { net.SetUp(2, true) })
	eng.RunAll()
	if !delivered {
		t.Fatal("message not delivered to node that recovered before arrival")
	}
}

func TestNoHandlerDrops(t *testing.T) {
	eng, net := newTestNet(t, 4)
	net.Send(0, 3, Message{Size: 1})
	eng.RunAll()
	if net.Stats().DroppedReceiver != 1 {
		t.Fatal("message to handler-less node should count as dropped")
	}
}

func TestStateListeners(t *testing.T) {
	_, net := newTestNet(t, 4)
	type ev struct {
		id NodeID
		up bool
	}
	var events []ev
	net.AddStateListener(func(id NodeID, up bool) { events = append(events, ev{id, up}) })
	net.SetUp(2, false)
	net.SetUp(2, false) // no-op: already down
	net.SetUp(2, true)
	if len(events) != 2 || events[0] != (ev{2, false}) || events[1] != (ev{2, true}) {
		t.Fatalf("events = %v", events)
	}
}

// TestNodeListeners pins what a node's own listener sees: its node's
// transitions only, each after every global listener has run on it.
func TestNodeListeners(t *testing.T) {
	_, net := newTestNet(t, 4)
	var calls []string
	net.AddNodeListener(2, func(id NodeID, up bool) { calls = append(calls, fmt.Sprintf("own %d %v", id, up)) })
	net.AddStateListener(func(id NodeID, up bool) { calls = append(calls, fmt.Sprintf("global %d %v", id, up)) })
	net.SetUp(1, false)
	net.SetUp(2, false)
	net.SetUp(2, false) // no-op: already down
	net.SetUp(2, true)
	want := []string{"global 1 false", "global 2 false", "own 2 false", "global 2 true", "own 2 true"}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls = %q, want %q", calls, want)
	}
}

func TestUpCount(t *testing.T) {
	_, net := newTestNet(t, 5)
	if net.UpCount() != 5 {
		t.Fatalf("UpCount = %d, want 5", net.UpCount())
	}
	net.SetUp(0, false)
	net.SetUp(3, false)
	if net.UpCount() != 3 {
		t.Fatalf("UpCount = %d, want 3", net.UpCount())
	}
	if net.IsUp(0) || !net.IsUp(1) {
		t.Fatal("IsUp inconsistent")
	}
}

func TestInvalidNodePanics(t *testing.T) {
	_, net := newTestNet(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	net.IsUp(99)
}

func TestNegativeSizePanics(t *testing.T) {
	_, net := newTestNet(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	net.Send(0, 1, Message{Size: -1})
}

func TestLossRate(t *testing.T) {
	eng, net := newTestNet(t, 4)
	net.SetLossRate(0.5)
	delivered := 0
	net.SetHandler(1, HandlerFunc(func(NodeID, Message) { delivered++ }))
	const sends = 2000
	for i := 0; i < sends; i++ {
		net.Send(0, 1, Message{Size: 1})
	}
	eng.RunAll()
	s := net.Stats()
	if s.DroppedLoss == 0 {
		t.Fatal("no loss at rate 0.5")
	}
	if delivered+int(s.DroppedLoss) != sends {
		t.Fatalf("delivered %d + lost %d != %d", delivered, s.DroppedLoss, sends)
	}
	frac := float64(delivered) / sends
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivery fraction %g at loss 0.5", frac)
	}
	// Lost messages still consumed bandwidth (they entered the wire).
	if s.Bytes != sends {
		t.Fatalf("bytes = %d, want %d", s.Bytes, sends)
	}
}

func TestLossRateValidation(t *testing.T) {
	_, net := newTestNet(t, 4)
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss rate %g accepted", bad)
				}
			}()
			net.SetLossRate(bad)
		}()
	}
}

func TestLatencyAccessor(t *testing.T) {
	_, net := newTestNet(t, 4)
	if net.Latency(0, 1) != 50*sim.Millisecond {
		t.Fatalf("Latency = %v", net.Latency(0, 1))
	}
	if net.Size() != 4 {
		t.Fatalf("Size = %d", net.Size())
	}
}

func TestSendDeliverZeroAlloc(t *testing.T) {
	// A message in flight is a slab slot and a typed event: once both
	// have grown, Send and its delivery allocate nothing — neither for
	// an empty message nor for one whose payload is a pointer, which an
	// interface holds without boxing.
	eng, net := newTestNet(t, 4)
	delivered := 0
	net.SetHandler(1, HandlerFunc(func(NodeID, Message) { delivered++ }))
	payload := &struct{ n int }{7}
	for name, msg := range map[string]Message{
		"no payload":      {Size: 1024},
		"pointer payload": {Payload: payload, Size: 1024},
	} {
		for i := 0; i < 64; i++ { // grow the queue and the slab
			net.Send(0, 1, msg)
		}
		eng.RunAll()
		delivered = 0
		allocs := testing.AllocsPerRun(100, func() {
			net.Send(0, 1, msg)
			eng.RunAll()
		})
		if allocs != 0 {
			t.Errorf("%s: Send+delivery allocated %.1f times per message, want 0", name, allocs)
		}
		if delivered != 101 {
			t.Errorf("%s: %d of 101 messages delivered", name, delivered)
		}
	}
}
