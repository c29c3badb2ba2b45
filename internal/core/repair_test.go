package core

import (
	"bytes"
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

func TestSendMessageToPathReuse(t *testing.T) {
	// §4.4: one path set multiplexed to several responders.
	w := testWorld(t, 32, 21)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	constructBytes := s.Stats().ConstructFlow.Bytes

	got := make(map[netsim.NodeID][]byte)
	for _, dest := range []netsim.NodeID{1, 5, 9} {
		dest := dest
		w.Receivers[dest].SetOnDelivered(func(_ uint64, data []byte, _ sim.Time) {
			got[dest] = bytes.Clone(data)
		})
	}
	for _, dest := range []netsim.NodeID{1, 5, 9} {
		msg := []byte{byte(dest), 1, 2, 3}
		if _, err := s.SendMessageTo(dest, msg); err != nil {
			t.Fatal(err)
		}
		w.Run(w.Eng.Now() + 10*sim.Second)
	}
	for _, dest := range []netsim.NodeID{1, 5, 9} {
		want := []byte{byte(dest), 1, 2, 3}
		if !bytes.Equal(got[dest], want) {
			t.Fatalf("dest %d got %v, want %v", dest, got[dest], want)
		}
	}
	// No further construction traffic was needed for the new responders.
	if s.Stats().ConstructFlow.Bytes != constructBytes {
		t.Fatal("path reuse triggered new construction traffic")
	}
}

func TestSendMessageToValidation(t *testing.T) {
	w := testWorld(t, 16, 22)
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	if _, err := s.SendMessageTo(0, []byte("x")); err == nil {
		t.Fatal("send-to-self accepted")
	}
}

func TestRepairReplacesFailedPath(t *testing.T) {
	w := testWorld(t, 64, 23)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	s.EnableRepair(10 * sim.Second)
	// Kill one relay on each path: without repair the set would die.
	for _, p := range s.paths {
		w.Net.SetUp(p.Relays[0], false)
	}
	w.Run(w.Eng.Now() + 2*sim.Minute)
	st := s.Stats()
	if st.PathsDied == 0 {
		t.Fatal("probe detection never marked the dead paths")
	}
	if st.PathsReplaced == 0 {
		t.Fatal("repair never replaced a path")
	}
	if s.AlivePaths() != 2 {
		t.Fatalf("alive paths = %d after repair, want 2", s.AlivePaths())
	}
	if s.SetDeadAt() != 0 {
		t.Fatal("self-healing session declared set death")
	}
	// And it still delivers.
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("delivery failed after repair")
	}
}

func TestRepairSurvivesLongIdleGaps(t *testing.T) {
	// The anonymous-email scenario: under churn, a session left idle
	// (except for probes) must still deliver an hour later.
	w, err := NewWorld(WorldConfig{
		N: 128, Seed: 24, UniformRTT: 50 * sim.Millisecond,
		Lifetime: churnLifetime(), Pinned: []netsim.NodeID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	w.Run(50 * sim.Minute)
	s, err := w.NewSession(0, 1, Params{
		Protocol: SimEra, K: 4, R: 2,
		Strategy:             mixchoice.Biased,
		MaxEstablishAttempts: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	s.EnableRepair(30 * sim.Second)
	w.Run(w.Eng.Now() + sim.Hour) // a full idle hour of churn
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage([]byte("still there?")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatalf("delivery after an idle hour failed (alive paths: %d, replaced: %d)",
			s.AlivePaths(), s.Stats().PathsReplaced)
	}
}

func TestOnDemandPathCarriesSegment(t *testing.T) {
	// §4.2 + §4.5: with repair enabled, a message sent while a slot is
	// dead forms a replacement path on demand WITH the segment riding the
	// construction onion — the message still reconstructs, and the slot
	// revives.
	w := testWorld(t, 64, 26)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	// Kill one slot outright: its relay really dies, and a message
	// whose segment vanishes there gets the slot condemned at its ack
	// deadline. Repair is switched on only afterwards — on-demand mode
	// without the probe ticker — so nothing has rebuilt the slot yet.
	w.Net.SetUp(s.paths[0].Relays[0], false)
	msg := make([]byte, 1024)
	if _, err := s.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	if s.m.SlotAlive(0) || s.AlivePaths() != 1 {
		t.Fatalf("ack timeout did not condemn the dead slot (alive %d)", s.AlivePaths())
	}
	s.repair = true
	s.m.EnableRepair()

	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	sent := s.Stats().SegmentsSent
	if _, err := s.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	// Both segments must be sent: one on the live path, one riding a
	// fresh on-demand construction.
	if got := s.Stats().SegmentsSent - sent; got != 2 {
		t.Fatalf("segments sent = %d, want 2 (one on-demand)", got)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("message did not reconstruct with an on-demand path")
	}
	if !s.m.SlotAlive(0) {
		t.Fatal("on-demand construction did not revive the slot")
	}
	if s.Stats().PathsReplaced != 1 {
		t.Fatalf("paths replaced = %d", s.Stats().PathsReplaced)
	}
	// Subsequent messages use both (now ordinary) paths.
	if _, err := s.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 2 {
		t.Fatal("delivery failed after on-demand revival")
	}
}

func TestProbesAreNotDelivered(t *testing.T) {
	w := testWorld(t, 32, 25)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	s.EnableRepair(5 * sim.Second)
	w.Run(w.Eng.Now() + 2*sim.Minute)
	if delivered != 0 {
		t.Fatalf("probes were delivered to the application (%d)", delivered)
	}
	// But they were acknowledged (failure detection is armed).
	if s.Stats().SegmentsAcked == 0 {
		t.Fatal("probe acks never arrived")
	}
}

func TestProbeEncodingRoundTrip(t *testing.T) {
	p := session.Ack{MID: 77, Index: 3}
	m, err := session.DecodeApp(p.Encode(session.KindProbe))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != session.KindProbe || m.Ack != p {
		t.Fatalf("decoded %+v", m)
	}
}
