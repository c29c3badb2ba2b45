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
// What is left is the initiator's record of the path (onion.Path, with
// its keys, its relay list and its sealed responder key in it) and the
// construction timer (the callback, its cancel flag and the Timer): 4.
// The onion is built and peeled in one pooled buffer, which goes with
// it from hop to hop; a relay's state comes from its table's free list,
// with the hop key in it; the relays are chosen into the session's
// scratch, avoiding the slots' relays as the machine's slot storage
// lists them. It was ≈ 30 with every layer sealed into a fresh buffer,
// a fresh copy of every key and inner onion at each relay, a fresh
// slice per hop key and per choice, and a callback per construction.
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
	if allocs > 6 {
		t.Errorf("one path construction allocated %.1f times, budget 6", allocs)
	}
	if st := s.Stats(); st.PathsReplaced != asked || st.PathsDied != 0 {
		t.Errorf("%d replacements asked, %d made, %d paths died", asked, st.PathsReplaced, st.PathsDied)
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
