package core

import (
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// paperPairs is the number of SimEra sessions in the paper-scale world.
const paperPairs = 64

// paperWorld builds the paper's evaluation world in the shape the repo
// benchmark's sim_paper workload runs: a 1024-node King-like world
// under Pareto churn, an hour of churn, then paperPairs SimEra(4,2)
// sessions over biased paths established with repair on.
func paperWorld(b *testing.B, seed int64) (*World, []*Session) {
	pinned := make([]netsim.NodeID, 2*paperPairs)
	for i := range pinned {
		pinned[i] = netsim.NodeID(i)
	}
	w, err := NewWorld(WorldConfig{
		N:        1024,
		Seed:     seed,
		Lifetime: stats.Pareto{Alpha: 1, Beta: 1800},
		Pinned:   pinned,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		b.Fatal(err)
	}
	w.Run(sim.Hour)
	established := 0
	sessions := make([]*Session, paperPairs)
	for p := range sessions {
		sess, err := w.NewSession(netsim.NodeID(2*p), netsim.NodeID(2*p+1), Params{
			Protocol: SimEra, K: 4, R: 2, L: 3,
			Strategy: mixchoice.Biased, MaxEstablishAttempts: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		sess.OnEstablished = func(ok bool, _ int) {
			if ok {
				established++
			}
		}
		sess.EnableRepair(30 * sim.Second)
		sess.Establish()
		sessions[p] = sess
	}
	w.Run(w.Eng.Now() + sim.Minute)
	if established != paperPairs {
		b.Fatalf("%d of %d sessions established", established, paperPairs)
	}
	return w, sessions
}

// BenchmarkWorldBuild prices the set-up of the paper's evaluation
// world (paperWorld). Topology, churn transitions and session
// establishment are its work.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		paperWorld(b, int64(1+i%4))
	}
}

// BenchmarkWorldTick prices sim_paper's steady state: one op is one
// tick, a 1 KB message on each of the paper world's sessions and 10
// simulated seconds run on, under churn and repair. ns/msg is the
// engine, netsim, core, onion and erasure cost of one message.
func BenchmarkWorldTick(b *testing.B) {
	w, sessions := paperWorld(b, 1)
	msg := make([]byte, 1<<10)
	tick := func() {
		for _, sess := range sessions {
			// A refused message (no path standing) costs its
			// attempt, as it does in sim_paper.
			_, _ = sess.SendMessage(msg)
		}
		w.Run(w.Eng.Now() + 10*sim.Second)
	}
	for i := 0; i < 20; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sessions)), "ns/msg")
}
