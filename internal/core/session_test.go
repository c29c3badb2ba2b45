package core

import (
	"bytes"
	"runtime"
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
)

// testWorld builds a small healthy world with uniform latency.
func testWorld(t *testing.T, n int, seed int64) *World {
	t.Helper()
	w, err := NewWorld(WorldConfig{N: n, Seed: seed, UniformRTT: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// establish runs w.Establish, failing the test if establishment
// outruns its budget.
func establish(t *testing.T, w *World, s *Session) bool {
	t.Helper()
	ok, _, err := w.Establish(s)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestCurMixEndToEnd(t *testing.T) {
	w := testWorld(t, 16, 1)
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("CurMix establishment failed on a healthy network")
	}
	var got []byte
	var at sim.Time
	w.Receivers[1].SetOnDelivered(func(mid uint64, data []byte, t sim.Time) { got, at = bytes.Clone(data), t })
	msg := []byte("single path message")
	sent := w.Eng.Now()
	if _, err := s.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("delivered %q", got)
	}
	// One-way latency over 4 links of 50ms = 200ms.
	if lat := at - sent; lat != 200*sim.Millisecond {
		t.Fatalf("delivery latency %v, want 200ms", lat)
	}
	st := s.Stats()
	if st.MessagesSent != 1 || st.SegmentsSent != 1 || st.SegmentsAcked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimEraSplitsAcrossPaths(t *testing.T) {
	w := testWorld(t, 32, 2)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	if s.AlivePaths() != 4 {
		t.Fatalf("alive paths = %d, want 4", s.AlivePaths())
	}
	var got []byte
	w.Receivers[1].SetOnDelivered(func(_ uint64, data []byte, _ sim.Time) { got = bytes.Clone(data) })
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i)
	}
	if _, err := s.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("SimEra message not reconstructed")
	}
	st := s.Stats()
	if st.SegmentsSent != 4 || st.SegmentsAcked != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimEraSurvivesToleratedFailures(t *testing.T) {
	// k=4, r=2: up to 2 path failures are tolerated.
	w := testWorld(t, 32, 3)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	// Kill the first relay of two paths.
	killed := 0
	for _, p := range s.paths[:2] {
		w.Net.SetUp(p.Relays[0], false)
		killed++
	}
	if killed != 2 {
		t.Fatal("setup broken")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d with 2/4 paths down (tolerated)", delivered)
	}
	// Ack timeout must have marked the two failed slots dead, but the
	// set survives (2 >= MinPaths = 2).
	if s.AlivePaths() != 2 {
		t.Fatalf("alive paths = %d, want 2", s.AlivePaths())
	}
	if s.SetDeadAt() != 0 {
		t.Fatal("path set declared dead while still deliverable")
	}
	// One more failure exceeds k(1-1/r): the set must die.
	w.Net.SetUp(s.paths[2].Relays[1], false)
	var deadAt sim.Time
	s.OnSetDead = func(at sim.Time) { deadAt = at }
	if _, err := s.SendMessage(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d after exceeding tolerance", delivered)
	}
	if deadAt == 0 {
		t.Fatal("OnSetDead never fired")
	}
}

func TestSimRepAnyCopySuffices(t *testing.T) {
	w := testWorld(t, 32, 4)
	s, err := w.NewSession(0, 1, Params{Protocol: SimRep, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	// Kill one of the two paths: the other copy still delivers.
	w.Net.SetUp(s.paths[0].Relays[0], false)
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage([]byte("replicated")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d with 1/2 paths down under SimRep", delivered)
	}
}

func TestEstablishRetries(t *testing.T) {
	// With only the exact number of nodes needed and one relay down,
	// random selection must sometimes fail and retry.
	w := testWorld(t, 24, 5)
	w.Net.SetUp(7, false) // one permanently dead candidate relay
	s, err := w.NewSession(0, 1, Params{
		Protocol:             CurMix,
		Strategy:             mixchoice.Random,
		MaxEstablishAttempts: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	var attempts int
	s.OnEstablished = func(o bool, a int) { ok, attempts = o, a }
	s.Establish()
	w.Run(10 * sim.Minute)
	if !ok {
		t.Fatalf("establishment failed after %d attempts", attempts)
	}
	if attempts < 1 || attempts > 50 {
		t.Fatalf("attempts = %d", attempts)
	}
	if s.Stats().EstablishAttempts != attempts {
		t.Fatal("stats attempts mismatch")
	}
}

func TestEstablishExhaustsAttempts(t *testing.T) {
	w := testWorld(t, 16, 6)
	// Kill everything except the endpoints: no construction can succeed.
	for i := 2; i < 16; i++ {
		w.Net.SetUp(netsim.NodeID(i), false)
	}
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix, MaxEstablishAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ok, done bool
	var attempts int
	s.OnEstablished = func(o bool, a int) { ok, attempts, done = o, a, true }
	s.Establish()
	w.Run(5 * sim.Minute)
	if !done || ok {
		t.Fatalf("done=%v ok=%v", done, ok)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if _, err := s.SendMessage([]byte("x")); err == nil {
		t.Fatal("SendMessage accepted on a failed session")
	}
}

// TestWorldEstablishBudget: with every message lost, each attempt runs
// its full construct timeout, so the last one concludes exactly at the
// end of the budget — which Establish must still see, in the step that
// reaches it. A budget the attempts outrun is an error.
func TestWorldEstablishBudget(t *testing.T) {
	w, err := NewWorld(WorldConfig{N: 16, Seed: 6, UniformRTT: 100 * sim.Millisecond, LossRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix, MaxEstablishAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, attempts, err := w.Establish(s)
	if err != nil || ok || attempts != 4 {
		t.Fatalf("Establish = (%v, %d, %v), want (false, 4, nil)", ok, attempts, err)
	}
	if w.Eng.Now() != 20*sim.Second {
		t.Fatalf("concluded at %v, want the budget's end, 4 × 5 s", w.Eng.Now())
	}

	w.Cfg.ConstructTimeout = sim.Second // a budget of 4 s against 20 s of attempts
	s, err = w.NewSession(0, 1, Params{Protocol: CurMix, MaxEstablishAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Establish(s); err == nil {
		t.Fatal("establishment outran its budget without an error")
	}
}

func TestBiasedChoiceAvoidsDeadNodes(t *testing.T) {
	// Half the candidate nodes are dead; biased choice (oracle q=0 for
	// dead nodes) must always construct on the first attempt.
	w := testWorld(t, 40, 7)
	for i := 20; i < 40; i++ {
		w.Net.SetUp(netsim.NodeID(i), false)
	}
	// Let oracle ages diverge a little.
	w.Run(sim.Minute)
	s, err := w.NewSession(0, 1, Params{
		Protocol: SimEra, K: 4, R: 2,
		Strategy:             mixchoice.Biased,
		MaxEstablishAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("biased establishment failed with plenty of live nodes")
	}
	if got := s.Stats().EstablishAttempts; got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	w := testWorld(t, 32, 8)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	// Responder answers every delivered message.
	w.Receivers[1].SetOnDelivered(func(mid uint64, data []byte, _ sim.Time) {
		if _, err := w.Receivers[1].Respond(mid, append([]byte("re:"), data...), nil); err != nil {
			t.Errorf("Respond: %v", err)
		}
	})
	var resp []byte
	s.OnResponse = func(_ uint64, data []byte, _ sim.Time) { resp = data }
	if _, err := s.SendMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if !bytes.Equal(resp, []byte("re:ping")) {
		t.Fatalf("response = %q", resp)
	}
}

// TestSessionForgetsPastItsHorizon: a session's memory of the messages
// it sent, of the responses to them and of rendezvous-forwarded
// messages is bounded by its rate, not its age. Over ten horizons
// (inboundTTL) of one message a minute, each answered just inside the
// horizon, and one inbound conversation a minute, each of the three
// holds at most the two horizons' worth a sweep once a horizon leaves —
// and every response still arrives.
func TestSessionForgetsPastItsHorizon(t *testing.T) {
	const (
		every      = sim.Minute
		horizons   = 10
		perHorizon = int(inboundTTL / every)
		replyDelay = inboundTTL - every
	)
	w := testWorld(t, 32, 8)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	w.Receivers[1].SetOnDelivered(func(mid uint64, data []byte, _ sim.Time) {
		data = append([]byte("re:"), data...)
		w.Eng.Schedule(replyDelay, func() {
			if _, err := w.Receivers[1].Respond(mid, data, nil); err != nil {
				t.Errorf("Respond: %v", err)
			}
		})
	})
	sent, responses, inbound := 0, 0, 0
	s.OnResponse = func(uint64, []byte, sim.Time) { responses++ }
	s.OnInbound = func(uint64, []byte, sim.Time) { inbound++ }
	largest := 0
	for i := 0; i < horizons*perHorizon; i++ {
		if _, err := s.SendMessage([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		sent++
		conv := session.ServiceSegment{Kind: session.KindInbound,
			Segment: session.Segment{MID: uint64(i), Total: 1, Needed: 1, Data: []byte{0, 0, 0, 2, 'h', 'i'}}}
		s.handleReverse(conv.Encode(), nil)
		w.Run(w.Eng.Now() + every)
		largest = max(largest, len(s.sent), s.responses.Len(), s.inbound.Len())
	}
	w.Run(w.Eng.Now() + replyDelay + every)
	if largest > 2*perHorizon+1 {
		t.Errorf("the session held %d messages at once, %d a horizon (sent %d, responses %d, inbound %d at the end)",
			largest, perHorizon, len(s.sent), s.responses.Len(), s.inbound.Len())
	}
	if responses != sent || inbound != sent {
		t.Errorf("%d messages sent: %d responses, %d inbound messages arrived", sent, responses, inbound)
	}
}

func TestWeightedAllocationPrefersStablePaths(t *testing.T) {
	w := testWorld(t, 64, 9)
	// Create age diversity so q/Δt_alive tie-breaks differ... with the
	// oracle all up nodes have q=1, so weighted allocation degenerates
	// to even — verify it still sends everything and delivers.
	s, err := w.NewSession(0, 1, Params{
		Protocol: SimEra, K: 4, R: 2, SegmentsPerPath: 2,
		Weighted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage(make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("weighted allocation failed to deliver")
	}
	if s.Stats().SegmentsSent != 8 {
		t.Fatalf("segments sent = %d, want 8", s.Stats().SegmentsSent)
	}
}

func TestPredictionReplacesWeakPaths(t *testing.T) {
	w := testWorld(t, 64, 10)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	s.EnablePrediction(0.5, 10*sim.Second)
	// Kill a relay on path 0: its oracle q decays below threshold, and
	// the predictor should proactively construct a replacement.
	victim := s.paths[0].Relays[1]
	w.Net.SetUp(victim, false)
	w.Run(w.Eng.Now() + 5*sim.Minute)
	if s.Stats().PathsReplaced == 0 {
		t.Fatal("prediction never replaced the weakened path")
	}
	// The session must still deliver after replacement.
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("delivery failed after proactive replacement")
	}
}

func TestGossipMembershipWorld(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		N: 16, Seed: 11, UniformRTT: 50 * sim.Millisecond,
		Membership: GossipMembership,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let gossip warm up so caches have liveness info.
	w.Run(2 * sim.Minute)
	s, err := w.NewSession(0, 1, Params{Protocol: CurMix, Strategy: mixchoice.Biased})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed under gossip membership")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage([]byte("gossip world")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("delivery failed under gossip membership")
	}
}

func TestSessionAccessors(t *testing.T) {
	w := testWorld(t, 16, 51)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Params(); got.K != 2 || got.L != DefaultL {
		t.Fatalf("Params() = %+v", got)
	}
	if s.EstablishedAt() != 0 {
		t.Fatal("EstablishedAt before establishment")
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed")
	}
	if s.EstablishedAt() == 0 {
		t.Fatal("EstablishedAt not recorded")
	}
	if w.Receivers[1].Delivered() != 0 {
		t.Fatal("phantom deliveries")
	}
	if _, err := s.SendMessage([]byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 10*sim.Second)
	if w.Receivers[1].Delivered() != 1 {
		t.Fatalf("Delivered() = %d", w.Receivers[1].Delivered())
	}
	// Teardown releases the paths; further reverse traffic is ignored
	// and the initiator forgets the path records.
	before := w.Nodes[0].Initiator.Paths()
	s.Teardown()
	if after := w.Nodes[0].Initiator.Paths(); after >= before {
		t.Fatalf("Teardown did not forget paths: %d -> %d", before, after)
	}
}

func TestOneHopMembershipWorld(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		N: 64, Seed: 31, UniformRTT: 50 * sim.Millisecond,
		Lifetime:   churnLifetime(),
		Pinned:     []netsim.NodeID{0, 1},
		Membership: OneHopMembership,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	w.Run(50 * sim.Minute)
	s, err := w.NewSession(0, 1, Params{
		Protocol:             SimEra,
		K:                    2,
		R:                    2,
		Strategy:             mixchoice.Biased,
		MaxEstablishAttempts: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("biased establishment failed under OneHop membership")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	if _, err := s.SendMessage([]byte("onehop world")); err != nil {
		t.Fatal(err)
	}
	w.Run(w.Eng.Now() + 30*sim.Second)
	if delivered != 1 {
		t.Fatal("delivery failed under OneHop membership")
	}
}

func TestCoverAgent(t *testing.T) {
	w := testWorld(t, 32, 12)
	agent, err := w.NewCoverAgent(3, CoverConfig{Interval: 30 * sim.Second, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	w.Run(5 * sim.Minute)
	st := agent.Stats()
	if st.Rounds < 8 {
		t.Fatalf("rounds = %d, want ~10", st.Rounds)
	}
	if st.Established == 0 || st.MessagesSent == 0 {
		t.Fatalf("cover agent never sent: %+v", st)
	}
	if st.BandwidthByte == 0 {
		t.Fatal("cover bandwidth not accounted")
	}
	agent.Stop()
	before := agent.Stats().Rounds
	w.Run(w.Eng.Now() + 5*sim.Minute)
	if agent.Stats().Rounds != before {
		t.Fatal("cover agent kept running after Stop")
	}
	if _, err := w.NewCoverAgent(1, CoverConfig{K: 3, R: 2}); err == nil {
		t.Fatal("invalid cover config accepted")
	}
}

func TestChurnWorldSurvival(t *testing.T) {
	// Full-stack smoke test: churn + sessions together.
	w, err := NewWorld(WorldConfig{
		N: 64, Seed: 13, UniformRTT: 50 * sim.Millisecond,
		Lifetime: churnLifetime(), Pinned: []netsim.NodeID{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err == nil {
		t.Fatal("double StartChurn accepted")
	}
	w.Run(sim.Hour)
	s, err := w.NewSession(0, 1, Params{
		Protocol: SimEra, K: 4, R: 4,
		Strategy:             mixchoice.Biased,
		MaxEstablishAttempts: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("biased SimEra(4,4) could not establish under churn")
	}
	delivered := 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	// Send a few messages over ten minutes of churn.
	for i := 0; i < 10; i++ {
		at := w.Eng.Now() + sim.Time(i)*sim.Minute
		w.Eng.ScheduleAt(at, func() {
			if s.Established() {
				s.SendMessage(make([]byte, 1024))
			}
		})
	}
	w.Run(w.Eng.Now() + 15*sim.Minute)
	if delivered == 0 {
		t.Fatal("no deliveries at all under churn with biased SimEra(4,4)")
	}
}

// TestSimEraMessageAllocs is the simulated message's allocation budget,
// on the shape of BenchmarkSimEraMessage: one 1 KB SimEra(4,2) message
// over four 3-relay paths of a healthy 32-node world, from SendMessage
// through reconstruction, all four acks and the round deadline. The
// engine, the network and the packets between hops contribute nothing
// (sim.TestScheduleTypedZeroAlloc, netsim.TestSendDeliverZeroAlloc,
// onion's packet pool), and neither do the payload buffers: the coded
// segments lie in the buffer a forgotten record left, every onion and
// every ack in a pooled buffer that the relays open and seal in place
// and the receiving end gives back, the rebuilt message in a pooled
// buffer too. Nor do the descriptors and records (DESIGN.md §8 has the
// table): the segments' descriptors go into the session's scratch, the
// session machine's record of the message and its ledger come from its
// free list, and the reassembler's record, with the receiver's reply
// handles in it, from the reassembler's, once a sweep has forgotten a
// message. It reads 0 (0.01 a message over 2 000 messages: a map or
// slice growing now and then); it was 5 with a fresh descriptor slice, ledger, reply-handle list and
// reassembly record per message, 16 with a fresh onion per segment, a
// fresh buffer per ack and a fresh rebuilt message, 17 with a fresh
// Split buffer per message, 37 with every reverse layer sealed into a
// fresh buffer, and 106 with a closure and a boxed message per
// delivery.
func TestSimEraMessageAllocs(t *testing.T) {
	send := simEraMessages(t)
	allocs := testing.AllocsPerRun(200, send)
	if allocs > 1 {
		t.Errorf("one SimEra(4,2) message allocated %.1f times, budget 1", allocs)
	}
}

// TestSimEraMessageBytes is the same message's budget in bytes: with
// every payload buffer and every record recycled it measures about 20
// bytes, a map or slice growing now and then. With a fresh descriptor
// slice, ledger, reply-handle list and reassembly record per message it
// was 760 bytes; with a fresh onion per segment, buffer per ack and
// rebuilt message, 5.6 KB.
func TestSimEraMessageBytes(t *testing.T) {
	send := simEraMessages(t)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 128 {
		t.Errorf("one SimEra(4,2) message allocated %d bytes, budget 128 B", got)
	}
}

// simEraMessages builds the allocation budgets' world, warms it up and
// returns send, which sends one message and runs the world until its
// round is over, 10 simulated seconds. Every message must be delivered and all four of its
// segments acknowledged, which the test checks when it ends.
func simEraMessages(t *testing.T) (send func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops at random under the race detector")
	}
	w := testWorld(t, 32, 1)
	s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !establish(t, w, s) {
		t.Fatal("establishment failed on a healthy network")
	}
	delivered, sent := 0, 0
	w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
	msg := make([]byte, 1024)
	send = func() {
		if _, err := s.SendMessage(msg); err != nil {
			t.Fatal(err)
		}
		sent++
		w.Run(w.Eng.Now() + 2*DefaultAckTimeout)
	}
	// Grow the queue, the slabs, the pools and the maps, and run two
	// horizons of the reassemblers' sweep: a message's records are new
	// until the first one that forgets a message, recycled from then on.
	for end := w.Eng.Now() + 2*inboundTTL; w.Eng.Now() < end; {
		send()
	}
	t.Cleanup(func() {
		st := s.Stats()
		if delivered != sent || st.SegmentsAcked != 4*sent || st.PathsDied != 0 {
			t.Errorf("%d messages: %d delivered, %d of %d segments acked, %d paths died", sent, delivered, st.SegmentsAcked, 4*sent, st.PathsDied)
		}
	})
	return send
}
