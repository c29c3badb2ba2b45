package experiments

// Ablations of design choices the paper argues for but does not
// tabulate: erasure coding against replication at equal bandwidth
// (§4.7), proactive replacement by the liveness predictor (§4.5), and
// combined construct-and-send (§4.2). Each compares two arms on the
// same seeds.

import (
	"fmt"
	"math/rand"

	"resilientmix/internal/analytic"
	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
	"resilientmix/internal/topology"
)

// Abl1 compares erasure coding with replication at the same bandwidth
// (r = 2): SimEra(k=4, r=2) sends four half-size segments of which any
// two rebuild the message, SimRep(k=2) two full copies of which either
// suffices. Both put 2 KB of payload on the wire per 1 KB message; the
// availabilities are Figure 2's, one per §4.7 regime.
func Abl1(opts Options) (*Result, error) {
	availabilities := []float64{0.95, 0.86, 0.70}
	arms := []int{4, 2} // k: erasure, replication
	seeds := 8
	if opts.Quick {
		seeds = 4
	}
	perPoint := len(arms) * seeds
	runs, err := parallelMap(len(availabilities)*perPoint, func(i int) (core.StaticResult, error) {
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)*15485863))
		return core.SimulateStatic(rng, core.StaticConfig{
			Availability: availabilities[i/perPoint],
			K:            arms[i%perPoint/seeds],
			R:            2,
			Trials:       staticTrials(opts),
		})
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "abl1",
		Caption: fmt.Sprintf("Erasure coding vs replication at equal bandwidth: SimEra(k=4,r=2) vs SimRep(k=2), L=3, %d seeds", seeds),
		Header:  []string{"pa", "regime", "erasure P sim", "analytic", "replication P sim", "analytic", "erasure KB", "replication KB"},
	}
	for a, pa := range availabilities {
		p := analytic.PathSuccessProb(pa, core.DefaultL)
		row := []string{fmt.Sprintf("%.2f", pa), analytic.ClassifyObservation(p, 2).String()}
		var kb []string
		for j, k := range arms {
			var rate, bw float64
			for _, r := range runs[a*perPoint+j*seeds : a*perPoint+(j+1)*seeds] {
				rate += r.SuccessRate / float64(seeds)
				bw += r.BandwidthKB / float64(seeds)
			}
			ana, err := analytic.PSuccess(k, 2, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", rate), fmt.Sprintf("%.4f", ana))
			kb = append(kb, fmt.Sprintf("%.2f", bw))
		}
		res.Rows = append(res.Rows, append(row, kb...))
	}
	res.Notes = append(res.Notes,
		"coding buys resilience per byte only where paths are good: it wins under Observation 1 (pr > 4/3) and loses under Observation 3 (pr <= 1), where two full copies beat needing two of four paths",
		"bandwidth counts every traversed link, so the erasure arm pays two more onion headers per message",
	)
	return res, nil
}

// Abl2 compares reactive-only failure handling with §4.5's proactive
// replacement on ext3's delivery workload: SimEra(k=4, r=2) under
// biased choice, without and with the liveness predictor, on the same
// worlds.
func Abl2(opts Options) (*Result, error) {
	n := 256
	seeds := 8
	if opts.Quick {
		n, seeds = 128, 4
	}
	params := core.Params{Protocol: core.SimEra, K: 4, R: 2, Strategy: mixchoice.Biased}
	runs, err := parallelMap(2*seeds, func(i int) (deliveries, error) {
		return deliveriesUnderChurn(n, opts.Seed+int64(i/2)*9999991, params, i%2 == 1)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "abl2",
		Caption: fmt.Sprintf("Reactive vs predictive path replacement: deliveries over 30 min of churn (SimEra k=4, r=2, biased choice, N=%d, %d seeds)", n, seeds),
		Header:  []string{"Failure handling", "delivered / sent", "delivery rate", "paths the predictor condemned"},
	}
	for arm, name := range []string{"reactive only (acks condemn)", "reactive + §4.5 predictor (q < 0.5, every 30 s)"} {
		var total deliveries
		for s := 0; s < seeds; s++ {
			d := runs[2*s+arm]
			total.sent += d.sent
			total.delivered += d.delivered
			total.predicted += d.predicted
		}
		rate := 0.0
		if total.sent > 0 {
			rate = float64(total.delivered) / float64(total.sent)
		}
		res.Rows = append(res.Rows, []string{name,
			fmt.Sprintf("%d / %d", total.delivered, total.sent), fmtPct(rate), fmt.Sprintf("%d", total.predicted)})
	}
	res.Notes = append(res.Notes,
		"the arms tie because the predictor never condemns a path, though it checks every live slot every 30 s: under oracle membership a live relay's q is exactly 1, and a departed one's q = Δt_alive/(Δt_alive+Δt_since) stays above 0.5 until it has been gone as long as it had been up",
		"biased choice picks relays up for tens of minutes, so the next message's missed acks condemn the path within seconds, long before its q could cross 0.5; the predictor can only act on staler membership than this scenario has",
	)
	return res, nil
}

// Abl3 measures §4.2's combined construct-and-send against the classic
// two passes (construct, wait for the ack, then send) on the King
// topology: virtual time from launch until the responder holds the
// first 1 KB payload, over a 3-relay path in a 64-node network, both
// arms on the same topology per seed.
func Abl3(opts Options) (*Result, error) {
	seeds := 20
	if opts.Quick {
		seeds = 5
	}
	ms, err := parallelMap(2*seeds, func(i int) (float64, error) {
		return firstDelivery(opts.Seed+int64(i/2)*104723, i%2 == 0)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "abl3",
		Caption: fmt.Sprintf("Combined construct+send vs two-pass: ms to first delivery (King topology, N=64, L=3, %d seeds)", seeds),
		Header:  []string{"Mode", "mean ms", "min ms", "max ms"},
	}
	for arm, name := range []string{"combined (§4.2)", "two-pass (construct, ack, send)"} {
		var xs []float64
		for s := 0; s < seeds; s++ {
			xs = append(xs, ms[2*s+arm])
		}
		sum := stats.Summarize(xs)
		res.Rows = append(res.Rows, []string{name,
			fmt.Sprintf("%.0f", sum.Mean), fmt.Sprintf("%.0f", sum.Min), fmt.Sprintf("%.0f", sum.Max)})
	}
	res.Notes = append(res.Notes,
		"combined mode crosses the path once (L+1 links); two-pass adds the construction's round trip to the last relay (2L links), so it takes about 2.5x as long — §4.2's \"without message delays\", measured",
	)
	return res, nil
}

// firstDelivery builds a 64-node onion network on the seed's King
// topology, launches a 1 KB payload from node 0 to node 1 through
// relays 3, 4 and 5, combined with the construction or after its ack,
// and returns the virtual milliseconds until node 1 receives it.
func firstDelivery(seed int64, combined bool) (float64, error) {
	const n = 64
	eng := sim.NewEngine(seed)
	topo, err := topology.Generate(n, topology.DefaultMeanRTT, seed)
	if err != nil {
		return 0, err
	}
	net := netsim.New(eng, topo)
	dir, err := onion.NewDirectory(onioncrypt.Null{}, eng.RNG(), n)
	if err != nil {
		return 0, err
	}
	var deliveredAt sim.Time = -1
	var init *onion.Initiator
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		mux := netsim.NewMux()
		node := onion.NewNode(net, id, dir, mux, onion.NodeConfig{
			OnData: func(onion.ReplyHandle, []byte) {
				if deliveredAt < 0 {
					deliveredAt = eng.Now()
				}
			},
		})
		if i == 0 {
			init = node.Initiator
		}
		net.SetHandler(id, mux)
	}
	relays := []netsim.NodeID{3, 4, 5}
	plain := make([]byte, 1024)
	if combined {
		_, err = init.ConstructWithData(relays, 1, plain, nil, func(*onion.Path, bool) {})
	} else {
		_, err = init.Construct(relays, 1, nil, func(p *onion.Path, ok bool) {
			if ok {
				init.SendData(p, plain, nil)
			}
		})
	}
	if err != nil {
		return 0, err
	}
	eng.Run(30 * sim.Second)
	if deliveredAt < 0 {
		return 0, fmt.Errorf("abl3: seed %d: no delivery", seed)
	}
	return deliveredAt.Seconds() * 1000, nil
}
