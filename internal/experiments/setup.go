package experiments

import (
	"fmt"

	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// setupConfig parameterizes one path-setup-rate run (the Table 1 /
// Figure 5 workload, §6.2 "Path Construction"): a churning network is
// warmed up, then every node schedules path-construction events with
// exponentially distributed inter-arrival times; each event is one
// construction attempt toward a random live responder.
type setupConfig struct {
	n            int
	seed         int64
	warmup       sim.Time
	measure      sim.Time
	interArrival sim.Time // mean; paper uses 116 s
	params       core.Params
	lifetime     stats.Dist
}

// setupResult is the outcome of one run.
type setupResult struct {
	events    int
	successes int
	rate      float64
}

// paperSetup returns the §6.1 workload dimensions, shrunk in Quick mode.
func paperSetup(opts Options, seed int64, params core.Params) setupConfig {
	cfg := setupConfig{
		n:            1024,
		seed:         seed,
		warmup:       sim.Hour,
		measure:      sim.Hour,
		interArrival: 116 * sim.Second,
		params:       params,
		lifetime:     stats.Pareto{Alpha: 1, Beta: 1800},
	}
	if opts.Quick {
		// Warmup must exceed the Pareto scale (1800 s) or no node will
		// have churned yet.
		cfg.n = 256
		cfg.warmup = 50 * sim.Minute
		cfg.measure = 15 * sim.Minute
	}
	return cfg
}

// runSetup executes one path-setup experiment run under the given
// membership mode (the paper's OneHop-accuracy assumption is
// core.OracleMembership).
func runSetup(cfg setupConfig, mode core.MembershipMode) (setupResult, error) {
	w, err := core.NewWorld(core.WorldConfig{
		N:          cfg.n,
		Seed:       cfg.seed,
		Lifetime:   cfg.lifetime,
		Membership: mode,
	})
	if err != nil {
		return setupResult{}, err
	}
	if err := w.StartChurn(); err != nil {
		return setupResult{}, err
	}
	w.Run(cfg.warmup)

	var res setupResult
	end := cfg.warmup + cfg.measure
	rng := w.Eng.RNG()

	// Each node schedules events with exponential inter-arrival; a node
	// that is down when its event fires skips it (so the total event
	// count tracks the live population, matching the paper's ~16k).
	var scheduleNext func(id netsim.NodeID)
	fire := func(id netsim.NodeID) {
		if w.Eng.Now() > end {
			return
		}
		scheduleNext(id)
		if !w.Net.IsUp(id) {
			return
		}
		responder := randomUpNode(w, id)
		if responder == netsim.Invalid {
			return
		}
		sess, err := w.NewSession(id, responder, cfg.params)
		if err != nil {
			return
		}
		res.events++
		sess.OnEstablished = func(ok bool, _ int) {
			if ok {
				res.successes++
			}
			sess.Teardown()
		}
		sess.Establish()
	}
	scheduleNext = func(id netsim.NodeID) {
		delay := sim.FromSeconds(rng.ExpFloat64() * cfg.interArrival.Seconds())
		at := w.Eng.Now() + delay
		if at > end {
			return
		}
		w.Eng.ScheduleAt(at, func() { fire(id) })
	}
	for i := 0; i < cfg.n; i++ {
		scheduleNext(netsim.NodeID(i))
	}
	// Run past the end so in-flight constructions resolve.
	w.Run(end + core.DefaultAckTimeout + 10*sim.Second)
	if res.events > 0 {
		res.rate = float64(res.successes) / float64(res.events)
	}
	return res, nil
}

// randomUpNode picks a uniformly random live node other than self, or
// Invalid if none exists.
func randomUpNode(w *core.World, self netsim.NodeID) netsim.NodeID {
	rng := w.Eng.RNG()
	n := w.Net.Size()
	for tries := 0; tries < 4*n; tries++ {
		id := netsim.NodeID(rng.Intn(n))
		if id != self && w.Net.IsUp(id) {
			return id
		}
	}
	return netsim.Invalid
}

// Tab1 reproduces Table 1: path setup success rates for CurMix,
// SimRep(r=2) and SimEra(k=2, r=2) under random and biased mix choice.
func Tab1(opts Options) (*Result, error) {
	protocols := []struct {
		name   string
		params core.Params
	}{
		{"CurMix", core.Params{Protocol: core.CurMix}},
		{"SimRep(r=2)", core.Params{Protocol: core.SimRep, R: 2}},
		{"SimEra(k=2,r=2)", core.Params{Protocol: core.SimEra, K: 2, R: 2}},
	}
	strategies := []mixchoice.Strategy{mixchoice.Random, mixchoice.Biased}

	type job struct {
		proto int
		strat mixchoice.Strategy
	}
	var jobs []job
	for pi := range protocols {
		for _, st := range strategies {
			jobs = append(jobs, job{pi, st})
		}
	}
	results, err := parallelMap(len(jobs), func(i int) (setupResult, error) {
		params := protocols[jobs[i].proto].params
		params.Strategy = jobs[i].strat
		cfg := paperSetup(opts, opts.Seed+int64(i)*33331, params)
		return runSetup(cfg, core.OracleMembership)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "tab1",
		Caption: "Path setup success rates for three anonymity protocols (Pareto churn, median 1h)",
		Header:  []string{"Mix choice", "CurMix", "SimRep(r=2)", "SimEra(k=2,r=2)"},
	}
	byJob := func(pi int, st mixchoice.Strategy) setupResult {
		for i, j := range jobs {
			if j.proto == pi && j.strat == st {
				return results[i]
			}
		}
		return setupResult{}
	}
	for _, st := range strategies {
		row := []string{st.String()}
		for pi := range protocols {
			r := byJob(pi, st)
			row = append(row, fmtPct(r.rate))
		}
		res.Rows = append(res.Rows, row)
	}
	randCur := byJob(0, mixchoice.Random).rate
	randRep := byJob(1, mixchoice.Random).rate
	ratio := 0.0
	if randCur > 0 {
		ratio = randRep / randCur
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("total events per run ≈ %d", results[0].events),
		fmt.Sprintf("redundancy gain under random choice: SimRep/CurMix = %.2fx (paper: ≈1.9x)", ratio),
		"paper shape: redundancy raises setup success ≈1.9x; biased choice raises it dramatically for all protocols",
		"paper absolute values: random [2.64%, 4.98%, 4.98%], biased [80.62%, 96.26%, 96.24%]; our random rates sit higher because the oracle membership keeps effective node availability at the ~50% steady state (see EXPERIMENTS.md)",
	)
	return res, nil
}

// Fig5 reproduces Figure 5: path setup success rates for SimEra with
// varying k and r, under (a) random and (b) biased mix choice.
func Fig5(opts Options) (*Result, error) {
	type job struct {
		k, r  int
		strat mixchoice.Strategy
	}
	var jobs []job
	for _, r := range []int{2, 3, 4} {
		for k := r; k <= 20; k += r {
			for _, st := range []mixchoice.Strategy{mixchoice.Random, mixchoice.Biased} {
				jobs = append(jobs, job{k, r, st})
			}
		}
	}
	results, err := parallelMap(len(jobs), func(i int) (setupResult, error) {
		j := jobs[i]
		params := core.Params{Protocol: core.SimEra, K: j.k, R: j.r, Strategy: j.strat}
		cfg := paperSetup(opts, opts.Seed+int64(i)*27644437, params)
		// Figure 5 has many parameter points; shorten each run — the
		// success-rate estimate converges fast.
		cfg.measure /= 2
		return runSetup(cfg, core.OracleMembership)
	})
	if err != nil {
		return nil, err
	}
	byJob := make(map[job]setupResult, len(jobs))
	for i, j := range jobs {
		byJob[j] = results[i]
	}

	res := &Result{
		ID:      "fig5",
		Caption: "SimEra path setup success (%) vs k and r: (a) random, (b) biased",
		Header:  []string{"k", "rand r=2", "rand r=3", "rand r=4", "bias r=2", "bias r=3", "bias r=4"},
	}
	kset := map[int]bool{}
	for _, j := range jobs {
		kset[j.k] = true
	}
	for _, k := range sortedKeys(kset) {
		row := []string{fmt.Sprintf("%d", k)}
		for _, st := range []mixchoice.Strategy{mixchoice.Random, mixchoice.Biased} {
			for _, r := range []int{2, 3, 4} {
				if v, ok := byJob[job{k, r, st}]; ok && v.events > 0 {
					row = append(row, fmt.Sprintf("%.2f", v.rate*100))
				} else {
					row = append(row, "-")
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape (a): higher r raises success; success falls as k grows under random choice",
		"paper shape (b): biased choice keeps success high (>90%) and nearly independent of k — the top k/r paths are very stable",
	)
	return res, nil
}
