package experiments

import (
	"fmt"
	"math/rand"

	"resilientmix/internal/analytic"
	"resilientmix/internal/core"
	"resilientmix/internal/membership"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// Ext7 sweeps the path length L, the knob the paper fixes at 3: longer
// paths buy anonymity (the §5 exposure bound falls) but cost resilience
// (per-path success is pa^L) and latency. One table ties §5 and §6
// together.
func Ext7(opts Options) (*Result, error) {
	trials := 40000
	if opts.Quick {
		trials = 8000
	}
	const (
		pa = 0.86
		n  = 1024
		f  = 0.1
	)
	res := &Result{
		ID:      "ext7",
		Caption: fmt.Sprintf("Path length trade-off: anonymity vs resilience (pa=%.2f, k=4, r=2, N=%d, f=%.1f)", pa, n, f),
		Header:  []string{"L", "full-path compromise f^L", "P(x=I) exact Eq.4", "path success pa^L", "SimEra P(k=4)", "hops"},
	}
	fullPath := func(l int) float64 {
		v := 1.0
		for i := 0; i < l; i++ {
			v *= f
		}
		return v
	}
	for l := 1; l <= 6; l++ {
		exposure, err := analytic.InitiatorProbabilityExact(n, f, l)
		if err != nil {
			return nil, err
		}
		p := analytic.PathSuccessProb(pa, l)
		rng := rand.New(rand.NewSource(opts.Seed + int64(l)*7129))
		sr, err := core.SimulateStatic(rng, core.StaticConfig{
			Availability: pa, K: 4, R: 2, L: l, Trials: trials,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", l),
			fmt.Sprintf("%.1e", fullPath(l)),
			fmt.Sprintf("%.4f", exposure),
			fmt.Sprintf("%.3f", p),
			fmt.Sprintf("%.3f", sr.SuccessRate),
			fmt.Sprintf("%d", l+1),
		})
	}
	res.Notes = append(res.Notes,
		"the predecessor-attack exposure (Eq. 4) is independent of L — only the first relay matters to it; what longer paths buy is protection against full-path compromise (f^L) and end-to-end linking",
		"meanwhile per-path success decays as pa^L and every hop adds latency — L=3 (the paper's default) is the conventional knee",
	)
	return res, nil
}

// Ext8 measures a systems cost of biased mix choice the paper does not
// evaluate: load concentration. Biased choice funnels all relay work
// onto the oldest nodes; we report the share of relayed traffic carried
// by the busiest 5% of relays and the max/mean ratio, random vs biased.
func Ext8(opts Options) (*Result, error) {
	n := 256
	events := 2000
	if opts.Quick {
		n, events = 128, 600
	}

	run := func(strategy mixchoice.Strategy, seed int64) (top5Share, maxMeanRatio float64, err error) {
		w, err := core.NewWorld(core.WorldConfig{
			N: n, Seed: seed,
			Lifetime: stats.Pareto{Alpha: 1, Beta: 1800},
		})
		if err != nil {
			return 0, 0, err
		}
		if err := w.StartChurn(); err != nil {
			return 0, 0, err
		}
		w.Run(50 * sim.Minute)
		rng := w.Eng.RNG()
		var sample []analyze.Path[netsim.NodeID]
		var cands []membership.Candidate
		for ev := 0; ev < events; ev++ {
			init := netsim.NodeID(rng.Intn(n))
			if !w.Net.IsUp(init) {
				continue
			}
			resp := randomUpNode(w, init)
			if resp == netsim.Invalid {
				continue
			}
			cands = w.Provider(init).AppendCandidates(cands[:0], init)
			paths, err := mixchoice.SelectPaths(rng, strategy, cands, 2, core.DefaultL, init, resp)
			if err != nil {
				continue
			}
			for _, path := range paths {
				sample = append(sample, analyze.Path[netsim.NodeID]{Initiator: init, Relays: path})
			}
		}
		r, err := analyze.ReadPaths(n, sample, nil)
		return r.BusiestShare, r.MaxMeanDuty, err
	}

	type outcome struct{ share, ratio float64 }
	outcomes, err := parallelMap(2, func(i int) (outcome, error) {
		strategy := mixchoice.Random
		if i == 1 {
			strategy = mixchoice.Biased
		}
		s, r, err := run(strategy, opts.Seed+int64(i)*90289)
		return outcome{s, r}, err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "ext8",
		Caption: "Relay load concentration under random vs biased mix choice (k=2, L=3, Pareto churn)",
		Header:  []string{"Mix choice", "load on busiest 5% of nodes", "max/mean load ratio"},
		Rows: [][]string{
			{"random", fmtPct(outcomes[0].share), fmt.Sprintf("%.1fx", outcomes[0].ratio)},
			{"biased", fmtPct(outcomes[1].share), fmt.Sprintf("%.1fx", outcomes[1].ratio)},
		},
	}
	res.Notes = append(res.Notes,
		"biased choice concentrates relay duty on the long-lived minority — a bandwidth-fairness cost (and a juicier compromise target, see ext6) that the paper's evaluation does not surface",
	)
	return res, nil
}
