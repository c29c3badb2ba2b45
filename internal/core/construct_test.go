package core

import (
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// TestPathConstructionAllocs is a simulated path construction's
// allocation budget: one replacement of a slot's path in a warm world,
// end to end — the relays chosen, the path keyed, the construction onion
// built and carried through three relays, which install their state,
// and the ack back to the initiator, which stands the path in the slot.
// Nothing is left to allocate. The initiator's record of the path
// (onion.Path, with its keys, its relay list and its sealed responder
// key in it) is one the replaced path's Forget gave back, its timeout
// callback bound to it once; the construction timer is a value whose
// cancel flag lies in the engine's slab. The onion is built and peeled
// in one pooled buffer, which goes with it from hop to hop; a relay's
// state comes from the world's free list, with the hop key in it; the
// relays are chosen into world scratch, avoiding the slots' relays as
// the machine's slot storage lists them. It was 4 with a fresh record
// and timer per construction, and ≈ 30 before that, with every layer
// sealed into a fresh buffer, a fresh copy of every key and inner onion
// at each relay, a fresh slice per hop key and per choice, and a
// callback per construction.
func TestPathConstructionAllocs(t *testing.T) {
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
	asked := 0
	replace := func() {
		var buf [2]session.Output
		s.run(s.m.Replace(buf[:0], asked%s.params.K))
		asked++
		w.Run(w.Eng.Now() + sim.Second)
	}
	// Two state TTLs: the relays' maps reach their size and their free
	// lists fill, as the sweeps reclaim the first states.
	for end := w.Eng.Now() + 2*onion.DefaultStateTTL; w.Eng.Now() < end; {
		replace()
	}
	allocs := testing.AllocsPerRun(200, replace)
	t.Logf("%.2f allocations per construction, %d replacements", allocs, asked)
	if allocs > 0.25 {
		t.Errorf("one path construction allocated %.2f times, budget 0.25", allocs)
	}
	if st := s.Stats(); st.PathsReplaced != asked || st.PathsDied != 0 {
		t.Errorf("%d replacements asked, %d made, %d paths died", asked, st.PathsReplaced, st.PathsDied)
	}
}

// TestEstablishmentEventAllocs is the establishment experiments' unit
// of work (Table 1, Figure 5) as runSetup does it, in a warm world: a
// session made for a random pair, established — four constructions —
// and torn down from its OnEstablished. The path records come back to
// their initiator at the teardown, the relays' states from the world's
// free list, the construction timers from the engine's slab, and the
// relays are chosen into world scratch; a session that never sends
// makes no reassembler, map or message scratch, and its machine no
// ledger map or allocation scratch. What is left is 6: the session, its
// slots' paths, its construction callback, the machine and its slots,
// and the test's own OnEstablished closure (runSetup's has one too). It
// was 24 with a session's message state made up front and its relays
// chosen into its own scratch.
func TestEstablishmentEventAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops at random under the race detector")
	}
	w := testWorld(t, 64, 1)
	rng := w.Eng.RNG()
	params := Params{Protocol: SimEra, K: 4, R: 2, L: 3}
	events, stood := 0, 0
	event := func() {
		a := netsim.NodeID(rng.Intn(64))
		b := (a + 1 + netsim.NodeID(rng.Intn(63))) % 64
		s, err := w.NewSession(a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		events++
		s.OnEstablished = func(ok bool, _ int) {
			if ok {
				stood++
			}
			s.Teardown()
		}
		s.Establish()
		w.Run(w.Eng.Now() + sim.Second)
	}
	// Two state TTLs, as in TestPathConstructionAllocs.
	for end := w.Eng.Now() + 2*onion.DefaultStateTTL; w.Eng.Now() < end; {
		event()
	}
	allocs := testing.AllocsPerRun(200, event)
	t.Logf("%.2f allocations per establishment event, %d events", allocs, events)
	if allocs > 6 {
		t.Errorf("one establishment event allocated %.1f times, budget 6", allocs)
	}
	if stood != events {
		t.Errorf("%d of %d establishments stood on a healthy network", stood, events)
	}
}

// BenchmarkPathConstruction prices the establishment experiments' unit
// of work (Table 1, Figure 5): one SimEra(k=10, r=2) session
// established over biased paths in a 1 024-node world warmed by an hour
// of churn, and torn down. allocs/op and B/op are those of ten path
// constructions and one session.
func BenchmarkPathConstruction(b *testing.B) {
	w, err := NewWorld(WorldConfig{N: 1024, Seed: 1, Lifetime: stats.Pareto{Alpha: 1, Beta: 1800}})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		b.Fatal(err)
	}
	w.Run(sim.Hour)
	params := Params{Protocol: SimEra, K: 10, R: 2, L: 3, Strategy: mixchoice.Biased, MaxEstablishAttempts: 5}
	next := 0
	establishOne := func() {
		// The next live initiator and responder, taking turns.
		var ends [2]netsim.NodeID
		for i := range ends {
			for !w.Net.IsUp(netsim.NodeID(next)) {
				next = (next + 1) % 1024
			}
			ends[i] = netsim.NodeID(next)
			next = (next + 1) % 1024
		}
		s, err := w.NewSession(ends[0], ends[1], params)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.Establish(s); err != nil {
			b.Fatal(err)
		}
		s.Teardown()
	}
	for i := 0; i < 100; i++ {
		establishOne()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		establishOne()
	}
}
