package core

import (
	"bytes"
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// mutualEnv wires a rendezvous node (RZ), a hidden responder (HS) and an
// initiator (IN), each behind its own path set.
type mutualEnv struct {
	w                 *World
	rz                *Rendezvous
	initiator, hidden *Session
}

const (
	inNode = netsim.NodeID(0)
	hsNode = netsim.NodeID(1)
	rzNode = netsim.NodeID(2)
)

func newMutualEnv(t *testing.T, seed int64) *mutualEnv {
	t.Helper()
	w := testWorld(t, 48, seed)
	e := &mutualEnv{w: w, rz: w.NewRendezvous(rzNode)}

	var err error
	e.hidden, err = w.NewSession(hsNode, rzNode, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, e.hidden) {
		t.Fatal("hidden service path set failed")
	}
	e.initiator, err = w.NewSession(inNode, rzNode, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, e.initiator) {
		t.Fatal("initiator path set failed")
	}
	return e
}

func TestMutualAnonymityRoundTrip(t *testing.T) {
	e := newMutualEnv(t, 41)
	w := e.w
	const tag = uint64(0xfeed)

	if err := e.hidden.RegisterService(tag); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	if e.rz.Stats().Registrations == 0 {
		t.Fatal("registration never reached the rendezvous")
	}

	// Hidden service echoes every inbound request.
	var serviceGot []byte
	e.hidden.OnInbound = func(conv uint64, data []byte, _ sim.Time) {
		serviceGot = data
		if err := e.hidden.SendServiceReply(conv, append([]byte("echo:"), data...)); err != nil {
			t.Errorf("SendServiceReply: %v", err)
		}
	}
	var initiatorGot []byte
	e.initiator.OnInbound = func(conv uint64, data []byte, _ sim.Time) { initiatorGot = data }

	conv, err := e.initiator.SendServiceMessage(tag, []byte("who are you?"))
	if err != nil {
		t.Fatal(err)
	}
	if conv == 0 {
		t.Fatal("zero conversation id")
	}
	w.Run(w.Eng.Now() + 30*sim.Second)

	if !bytes.Equal(serviceGot, []byte("who are you?")) {
		t.Fatalf("service received %q", serviceGot)
	}
	if !bytes.Equal(initiatorGot, []byte("echo:who are you?")) {
		t.Fatalf("initiator received %q", initiatorGot)
	}
	st := e.rz.Stats()
	if st.SegmentsInbound == 0 || st.SegmentsOutbound == 0 {
		t.Fatalf("rendezvous stats = %+v", st)
	}
}

func TestServiceMessageToUnknownTagDropped(t *testing.T) {
	e := newMutualEnv(t, 42)
	w := e.w
	delivered := false
	e.hidden.OnInbound = func(uint64, []byte, sim.Time) { delivered = true }
	if _, err := e.initiator.SendServiceMessage(0xdead, []byte("hello?")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered {
		t.Fatal("message for unregistered tag was delivered")
	}
	if e.rz.Stats().DroppedNoTag == 0 {
		t.Fatal("drop not counted")
	}
}

func TestServiceReplyToUnknownConvDropped(t *testing.T) {
	e := newMutualEnv(t, 43)
	w := e.w
	if err := e.hidden.SendServiceReply(12345, []byte("to nobody")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if e.rz.Stats().DroppedNoConv == 0 {
		t.Fatal("unknown conversation not counted as dropped")
	}
}

func TestServiceRequiresEstablishedSession(t *testing.T) {
	w := testWorld(t, 48, 44)
	w.NewRendezvous(rzNode)
	s, err := w.NewSession(hsNode, rzNode, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterService(7); err == nil {
		t.Fatal("RegisterService on unestablished session accepted")
	}
	if _, err := s.SendServiceMessage(7, []byte("x")); err == nil {
		t.Fatal("SendServiceMessage on unestablished session accepted")
	}
	if err := s.SendServiceReply(7, []byte("x")); err == nil {
		t.Fatal("SendServiceReply on unestablished session accepted")
	}
}

func TestServiceTrafficAtPlainNodeDropped(t *testing.T) {
	// Service messages addressed to a node with no rendezvous must be
	// discarded, not crash or be misdelivered.
	w := testWorld(t, 32, 45)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	var delivered []uint64
	w.Receivers[1].SetOnDelivered(func(mid uint64, _ []byte, _ sim.Time) { delivered = append(delivered, mid) })
	if err := s.RegisterService(9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendServiceMessage(9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	if len(delivered) != 0 {
		t.Fatalf("service traffic at a plain node was delivered as messages %x", delivered)
	}
	// The paths it came over still carry the node's own traffic.
	mid, err := s.SendMessage([]byte("plain"))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	if len(delivered) != 1 || delivered[0] != mid {
		t.Fatalf("delivered %x after the service traffic, want only %x", delivered, mid)
	}
}

func TestMutualAnonymityUnderChurn(t *testing.T) {
	// Full-stack: rendezvous communication with churning relays and
	// biased, self-repairing path sets on both legs.
	w, err := NewWorld(WorldConfig{
		N: 96, Seed: 46, UniformRTT: 50 * sim.Millisecond,
		Lifetime: churnLifetime(),
		Pinned:   []netsim.NodeID{inNode, hsNode, rzNode},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	w.Run(50 * sim.Minute)
	rz := w.NewRendezvous(rzNode)

	params := Params{
		Protocol: SimEra, K: 2, R: 2,
		Strategy:             mixchoice.Biased,
		MaxEstablishAttempts: 50,
	}
	hidden, err := w.NewSession(hsNode, rzNode, params)
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, hidden) {
		t.Fatal("hidden establishment failed")
	}
	hidden.EnableRepair(30 * sim.Second)
	initiator, err := w.NewSession(inNode, rzNode, params)
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, initiator) {
		t.Fatal("initiator establishment failed")
	}
	initiator.EnableRepair(30 * sim.Second)

	const tag = uint64(0xabcd)
	if err := hidden.RegisterService(tag); err != nil {
		t.Fatal(err)
	}
	// Re-register periodically so repaired paths are covered.
	w.Eng.Every(2*sim.Minute, 2*sim.Minute, func() {
		if hidden.Established() {
			hidden.RegisterService(tag)
		}
	})

	received := 0
	hidden.OnInbound = func(conv uint64, data []byte, _ sim.Time) { received++ }

	sentTotal := 0
	for i := 0; i < 6; i++ {
		if _, err := initiator.SendServiceMessage(tag, []byte("msg")); err == nil {
			sentTotal++
		}
		w.Run(w.Eng.Now() + 5*sim.Minute)
	}
	if received == 0 {
		t.Fatalf("no service messages delivered under churn (sent %d, rz stats %+v)",
			sentTotal, rz.Stats())
	}
}
