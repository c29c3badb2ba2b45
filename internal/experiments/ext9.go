package experiments

import (
	"fmt"

	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/sim"
)

// Ext9 extends the paper's failure model from node churn to random
// per-message link loss and shows that erasure-coded multipath masks it
// the same way it masks path failures: delivery rate of CurMix vs
// SimEra(4,2) on a healthy (no-churn) network as the loss rate rises.
// CurMix loses a message whenever any of its L+1 link traversals drops;
// SimEra only fails when enough whole segments drop that fewer than m
// survive.
func Ext9(opts Options) (*Result, error) {
	n := 64
	messages := 400
	if opts.Quick {
		messages = 120
	}
	lossRates := []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}

	run := func(params core.Params, loss float64, seed int64) (float64, error) {
		// Construction happens loss-free so every run starts from the
		// same k live paths; loss is switched on for the message phase
		// only (we are isolating the coding gain, not construction
		// robustness — ext5/tab1 cover construction).
		w, err := core.NewWorld(core.WorldConfig{
			N: n, Seed: seed, UniformRTT: 50 * sim.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		sess, err := w.NewSession(0, 1, params)
		if err != nil {
			return 0, err
		}
		if ok, _, err := w.Establish(sess); err != nil || !ok {
			return 0, err
		}
		w.Net.SetLossRate(loss)
		delivered := 0
		w.Receivers[1].SetOnDelivered(func(uint64, []byte, sim.Time) { delivered++ })
		for i := 0; i < messages; i++ {
			sess.SendMessage(make([]byte, 1024))
			w.Run(w.Eng.Now() + 2*sim.Second)
		}
		w.Run(w.Eng.Now() + 30*sim.Second)
		return float64(delivered) / float64(messages), nil
	}

	// AckTimeout is set beyond the run length: a lost ack must not
	// permanently retire a path (there are no real path failures here),
	// or the session's churn-oriented failure detector would amplify
	// every ack drop into a dead path and the experiment would measure
	// the detector, not the code.
	protocols := []struct {
		name   string
		params core.Params
	}{
		{"CurMix", core.Params{Protocol: core.CurMix, Strategy: mixchoice.Random, MaxEstablishAttempts: 20, AckTimeout: 10 * sim.Hour}},
		{"SimEra(k=4,r=2)", core.Params{Protocol: core.SimEra, K: 4, R: 2, Strategy: mixchoice.Random, MaxEstablishAttempts: 20, AckTimeout: 10 * sim.Hour}},
		{"SimEra(k=4,r=4)", core.Params{Protocol: core.SimEra, K: 4, R: 4, Strategy: mixchoice.Random, MaxEstablishAttempts: 20, AckTimeout: 10 * sim.Hour}},
	}
	type job struct{ pi, li int }
	var jobs []job
	for pi := range protocols {
		for li := range lossRates {
			jobs = append(jobs, job{pi, li})
		}
	}
	rates, err := parallelMap(len(jobs), func(i int) (float64, error) {
		j := jobs[i]
		return run(protocols[j.pi].params, lossRates[j.li], opts.Seed+int64(i)*75577)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "ext9",
		Caption: "Delivery rate vs random per-message link loss (no churn; loss model extension)",
		Header:  []string{"loss rate", "CurMix", "SimEra(k=4,r=2)", "SimEra(k=4,r=4)"},
	}
	for li, loss := range lossRates {
		row := []string{fmt.Sprintf("%.0f%%", loss*100)}
		for pi := range protocols {
			for i, j := range jobs {
				if j.pi == pi && j.li == li {
					row = append(row, fmtPct(rates[i]))
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"a CurMix message needs all L+1 link traversals to survive; SimEra needs only m of n segments, so redundancy flattens the loss curve",
		"acks and retries are not modeled here — this isolates the coding gain itself",
	)
	return res, nil
}
