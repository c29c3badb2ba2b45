package core

import (
	"testing"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// BenchmarkWorldBuild prices the set-up of the paper's evaluation world
// in the shape the repo benchmark's sim_paper workload times: a
// 1024-node King-like world under Pareto churn, an hour of churn, then
// 64 SimEra(4,2) sessions over biased paths established with repair on.
// Topology, churn transitions and session establishment are its work.
func BenchmarkWorldBuild(b *testing.B) {
	const n, pairs = 1024, 64
	pinned := make([]netsim.NodeID, 2*pairs)
	for i := range pinned {
		pinned[i] = netsim.NodeID(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(WorldConfig{
			N:        n,
			Seed:     int64(1 + i%4),
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
		for p := 0; p < pairs; p++ {
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
		}
		w.Run(w.Eng.Now() + sim.Minute)
		if established != pairs {
			b.Fatalf("%d of %d sessions established", established, pairs)
		}
	}
}
