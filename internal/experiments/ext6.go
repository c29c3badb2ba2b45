package experiments

import (
	"fmt"

	"resilientmix/internal/core"
	"resilientmix/internal/membership"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// Ext6 studies the adversarial incentive the paper's §7 discusses:
// "In biased mix choice, nodes that have been alive a long time are more
// likely to be chosen as relay nodes. So, the attacker may attempt to
// stay longer in the system with the hope of being relay nodes of many
// paths and breaking other's anonymity."
//
// A fraction f of nodes is malicious and never churns; honest nodes
// churn normally (Pareto, median 1 h). We measure, for random and biased
// mix choice, the fraction of relay slots captured by the attacker and
// the fraction of paths whose FIRST relay is malicious (the §5 Case-1
// event that deanonymizes the initiator).
func Ext6(opts Options) (*Result, error) {
	n := 512
	events := 3000
	if opts.Quick {
		n, events = 128, 600
	}
	const f = 0.1

	run := func(strategy mixchoice.Strategy, seed int64) (slotFrac, case1Frac float64, err error) {
		// Malicious nodes are the last f*n IDs; pinning them models
		// "staying longer in the system".
		malicious := make([]netsim.NodeID, 0, int(f*float64(n)))
		for i := n - int(f*float64(n)); i < n; i++ {
			malicious = append(malicious, netsim.NodeID(i))
		}
		w, err := core.NewWorld(core.WorldConfig{
			N: n, Seed: seed,
			Lifetime: stats.Pareto{Alpha: 1, Beta: 1800},
			Pinned:   malicious,
		})
		if err != nil {
			return 0, 0, err
		}
		if err := w.StartChurn(); err != nil {
			return 0, 0, err
		}
		w.Run(90 * sim.Minute) // honest nodes churn; attackers accrue age

		rng := w.Eng.RNG()
		var sample []analyze.Path[netsim.NodeID]
		var cands []membership.Candidate
		for ev := 0; ev < events; ev++ {
			init := netsim.NodeID(rng.Intn(n - len(malicious))) // honest initiator
			if !w.Net.IsUp(init) {
				continue
			}
			resp := randomUpNode(w, init)
			if resp == netsim.Invalid {
				continue
			}
			cands = w.Provider(init).AppendCandidates(cands[:0], init)
			selected, err := mixchoice.SelectPaths(rng, strategy, cands, 1, core.DefaultL, init, resp)
			if err != nil {
				continue
			}
			sample = append(sample, analyze.Path[netsim.NodeID]{Initiator: init, Relays: selected[0]})
		}
		r, err := analyze.ReadPaths(n, sample, malicious)
		return r.SlotShare, r.FirstRelayShare, err
	}

	type outcome struct{ slots, case1 float64 }
	outcomes, err := parallelMap(2, func(i int) (outcome, error) {
		strategy := mixchoice.Random
		if i == 1 {
			strategy = mixchoice.Biased
		}
		s, c, err := run(strategy, opts.Seed+int64(i)*48611)
		return outcome{s, c}, err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "ext6",
		Caption: fmt.Sprintf("Long-lived attacker capturing relay slots (f=%.0f%% malicious, never churning; §7 discussion)", f*100),
		Header:  []string{"Mix choice", "relay slots captured", "first-relay capture (Case 1)"},
		Rows: [][]string{
			{"random", fmtPct(outcomes[0].slots), fmtPct(outcomes[0].case1)},
			{"biased", fmtPct(outcomes[1].slots), fmtPct(outcomes[1].case1)},
		},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("baseline: malicious nodes are %.0f%% of the population; random choice picks them at roughly the availability-weighted rate", f*100),
		"biased choice over-selects the always-on attackers — the §7 risk is real; the paper's counterargument is that cover traffic masks who initiates, and that the same incentive also rewards honest nodes for staying online",
	)
	return res, nil
}
