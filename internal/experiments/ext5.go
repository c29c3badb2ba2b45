package experiments

import (
	"fmt"

	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/sim"
)

// Ext5 quantifies §4.6's defence: a passive observer tapping most links
// plus a compromised responder mounts the timing-correlation attack
// against an initiator, with and without system-wide cover traffic.
// Reported: whether the top suspect is the true initiator, the true
// initiator's rank-1 score, and the ambiguity (size of the tied top
// candidate set — the attacker's effective anonymity set).
func Ext5(opts Options) (*Result, error) {
	n := 128
	messages := 20
	if opts.Quick {
		n, messages = 64, 12
	}

	run := func(cover bool, seed int64) (success float64, ambiguity int, err error) {
		// The observer reads the run's trace; tracing consumes no engine
		// randomness, so the run is the one an untraced world makes.
		an := analyze.New()
		w, err := core.NewWorld(core.WorldConfig{N: n, Seed: seed, Tracer: an})
		if err != nil {
			return 0, 0, err
		}
		const initiator, responder = netsim.NodeID(3), netsim.NodeID(7)
		covered, err := analyze.Coverage(w.Eng.RNG(), n, 0.9)
		if err != nil {
			return 0, 0, err
		}
		// §4.6: "only the source and destination of a communication can
		// distinguish real messages and cover messages" — the compromised
		// responder therefore correlates only against the conversation it
		// cares about, not against cover dummies that happen to land on it.
		realMIDs := make(map[uint64]bool)

		if cover {
			for i := 0; i < n; i++ {
				agent, err := w.NewCoverAgent(netsim.NodeID(i), core.CoverConfig{
					Interval: 30 * sim.Second, K: 2,
				})
				if err != nil {
					return 0, 0, err
				}
				agent.Start()
			}
			// Let cover traffic reach steady state before the victim
			// starts talking.
			w.Run(2 * sim.Minute)
		}

		sess, err := w.NewSession(initiator, responder, core.Params{
			Protocol: core.SimEra, K: 2, R: 2, Strategy: mixchoice.Random,
		})
		if err != nil {
			return 0, 0, err
		}
		sess.Establish()
		w.Run(w.Eng.Now() + sim.Minute)
		if !sess.Established() {
			return 0, 0, fmt.Errorf("ext5: session failed to establish")
		}
		for i := 0; i < messages; i++ {
			if mid, err := sess.SendMessage(make([]byte, 1024)); err == nil {
				realMIDs[mid] = true
			}
			w.Run(w.Eng.Now() + 30*sim.Second)
		}

		// The attacker guesses uniformly among the tied top scorers; the
		// success probability is 1/|tie set| when the initiator is in it.
		c, err := an.Finalize().Correlate(covered, int64(2*sim.Second), realMIDs, int(responder))
		return c.Success, c.Ambiguity, err
	}

	seeds := 6
	if opts.Quick {
		seeds = 3
	}
	type outcome struct {
		success float64
		amb     float64
	}
	results := [2]outcome{}
	for c, cover := range []bool{false, true} {
		vals, err := parallelMap(seeds, func(i int) (outcome, error) {
			success, amb, err := run(cover, opts.Seed+int64(100*c+i)*104717)
			if err != nil {
				return outcome{}, err
			}
			return outcome{success: success, amb: float64(amb)}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			results[c].success += v.success
			results[c].amb += v.amb
		}
		results[c].success /= float64(seeds)
		results[c].amb /= float64(seeds)
	}

	res := &Result{
		ID:      "ext5",
		Caption: "Timing-correlation attack vs cover traffic (90% link coverage, compromised responder)",
		Header:  []string{"Configuration", "P(attacker names initiator)", "mean ambiguity (anonymity set)"},
		Rows: [][]string{
			{"no cover traffic", fmtPct(results[0].success), fmt.Sprintf("%.1f", results[0].amb)},
			{"cover traffic on all nodes (§4.6)", fmtPct(results[1].success), fmt.Sprintf("%.1f", results[1].amb)},
		},
	}
	res.Notes = append(res.Notes,
		"without cover the tie set is the initiator plus its own relays (they also transmit right before every delivery); with cover it grows toward the covering population",
		"the attacker guesses uniformly among ties, so P(success) ≈ 1/ambiguity when the initiator ties the top — cover traffic shrinks it toward 1/N",
	)
	return res, nil
}
