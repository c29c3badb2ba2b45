package experiments

import (
	"fmt"
	"strings"

	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// durabilityConfig parameterizes one §6.2 "Performance Comparison" run:
// two pinned endpoints, a churning relay population, path construction
// with retries at t = warmup, then a 1 KB message every 10 s until the
// path set dies or the cap elapses.
type durabilityConfig struct {
	n        int
	seed     int64
	warmup   sim.Time
	cap      sim.Time // durability cap (paper: 1 hour)
	interval sim.Time // message interval (paper: 10 s)
	msgSize  int
	params   core.Params
	lifetime stats.Dist
}

// durabilityResult is one run's metrics, matching Table 2's columns.
type durabilityResult struct {
	durability  float64 // seconds
	attempts    float64
	latencyMS   float64 // mean successful delivery latency
	bandwidthKB float64 // mean per-message bandwidth
}

func paperDurability(opts Options, seed int64, params core.Params, lifetime stats.Dist) durabilityConfig {
	cfg := durabilityConfig{
		n:        1024,
		seed:     seed,
		warmup:   sim.Hour,
		cap:      sim.Hour,
		interval: 10 * sim.Second,
		msgSize:  1024,
		params:   params,
		lifetime: lifetime,
	}
	if opts.Quick {
		// Warmup must exceed the Pareto scale (1800 s) or no node will
		// have churned yet by establishment time.
		cfg.n = 256
		cfg.warmup = 50 * sim.Minute
		cfg.cap = 30 * sim.Minute
	}
	return cfg
}

// runDurability is one Table 2–4 sample: build the world, warm it up,
// establish, measure. Node 0 is the initiator and node 1 the
// responder; both are pinned up (§6.2).
func runDurability(cfg durabilityConfig) (durabilityResult, error) {
	const initiator, responder = netsim.NodeID(0), netsim.NodeID(1)
	w, err := core.NewWorld(core.WorldConfig{
		N:        cfg.n,
		Seed:     cfg.seed,
		Lifetime: cfg.lifetime,
		Pinned:   []netsim.NodeID{initiator, responder},
	})
	if err != nil {
		return durabilityResult{}, err
	}
	if err := w.StartChurn(); err != nil {
		return durabilityResult{}, err
	}
	w.Run(cfg.warmup)

	params := cfg.params
	if params.MaxEstablishAttempts == 0 {
		params.MaxEstablishAttempts = 500
	}
	sess, err := w.NewSession(initiator, responder, params)
	if err != nil {
		return durabilityResult{}, err
	}
	ok, attempts, err := w.Establish(sess)
	out := durabilityResult{attempts: float64(attempts)}
	if err != nil || !ok {
		return out, err
	}
	out.durability, _, out.latencyMS, out.bandwidthKB = MeasureDurability(w, sess, responder, cfg.cap, cfg.interval, cfg.msgSize)
	return out, nil
}

// MeasureDurability is §6.2's message loop and durability rule, run on
// an established session: it sends a msgSize-byte message every
// interval from EstablishedAt until EstablishedAt + limit or until the
// path set dies, and runs the engine a minute past that end. Durability
// is limit if the set survived, else the time to the last delivery (the
// detection lag of the ack timeout is not the path set's life), or to
// the set's death if nothing arrived. delivered counts the messages
// responder reconstructed, latencyMS is their mean latency and
// kbPerMsg the data bytes sent per message.
func MeasureDurability(w *core.World, sess *core.Session, responder netsim.NodeID, limit, interval sim.Time, msgSize int) (durability float64, delivered int, latencyMS, kbPerMsg float64) {
	start := sess.EstablishedAt()
	end := start + limit
	sent := make(map[uint64]sim.Time)
	var latencies []float64
	var lastDelivered sim.Time
	w.Receivers[responder].SetOnDelivered(func(mid uint64, _ []byte, at sim.Time) {
		if sentAt, ok := sent[mid]; ok {
			latencies = append(latencies, (at-sentAt).Seconds()*1000)
			lastDelivered = at
		}
	})
	msg := make([]byte, msgSize)
	var tick func()
	tick = func() {
		if w.Eng.Now() >= end || sess.SetDeadAt() != 0 {
			return
		}
		if mid, err := sess.SendMessage(msg); err == nil {
			sent[mid] = w.Eng.Now()
		}
		w.Eng.Schedule(interval, tick)
	}
	w.Eng.Schedule(0, tick)
	w.Run(end + sim.Minute)

	switch deadAt := sess.SetDeadAt(); {
	case deadAt != 0 && lastDelivered > 0:
		durability = (lastDelivered - start).Seconds()
	case deadAt != 0:
		durability = (deadAt - start).Seconds()
	default:
		durability = limit.Seconds()
	}
	if st := sess.Stats(); st.MessagesSent > 0 {
		kbPerMsg = float64(st.DataFlow.Bytes) / float64(st.MessagesSent) / 1024
	}
	return durability, len(latencies), stats.Mean(latencies), kbPerMsg
}

// durabilityCell runs `seeds` independent runs and averages, producing
// the paper's [random, biased] pair text per metric.
type durabilityAgg struct {
	durability, attempts, latency, bandwidth float64
	// durabilityCI is the 95% confidence half-width over the seeds.
	durabilityCI float64
}

func durabilityAverage(opts Options, params core.Params, lifetime stats.Dist, strat mixchoice.Strategy, seedBase int64) (durabilityAgg, error) {
	seeds := 10
	if opts.Quick {
		seeds = 5
	}
	p := params
	p.Strategy = strat
	runs, err := parallelMap(seeds, func(i int) (durabilityResult, error) {
		cfg := paperDurability(opts, seedBase+int64(i)*95233, p, lifetime)
		return runDurability(cfg)
	})
	if err != nil {
		return durabilityAgg{}, err
	}
	var agg durabilityAgg
	var nLat, nBW int
	durSamples := make([]float64, 0, len(runs))
	for _, r := range runs {
		agg.durability += r.durability
		durSamples = append(durSamples, r.durability)
		agg.attempts += r.attempts
		if r.latencyMS > 0 {
			agg.latency += r.latencyMS
			nLat++
		}
		if r.bandwidthKB > 0 {
			agg.bandwidth += r.bandwidthKB
			nBW++
		}
	}
	agg.durability /= float64(len(runs))
	_, agg.durabilityCI = stats.MeanCI95(durSamples)
	agg.attempts /= float64(len(runs))
	if nLat > 0 {
		agg.latency /= float64(nLat)
	}
	if nBW > 0 {
		agg.bandwidth /= float64(nBW)
	}
	return agg, nil
}

// durabilityPairs runs both strategies for one protocol/lifetime cell.
func durabilityPairs(opts Options, params core.Params, lifetime stats.Dist, seedBase int64) (random, biased durabilityAgg, err error) {
	pair, err := parallelMap(2, func(i int) (durabilityAgg, error) {
		strat := mixchoice.Random
		if i == 1 {
			strat = mixchoice.Biased
		}
		return durabilityAverage(opts, params, lifetime, strat, seedBase+int64(i)*15485863)
	})
	if err != nil {
		return durabilityAgg{}, durabilityAgg{}, err
	}
	return pair[0], pair[1], nil
}

// durabilityRows renders the four Table 2-style metric rows for a set of
// labelled cells.
func durabilityRows(labels []string, cells [][2]durabilityAgg) [][]string {
	rows := make([][]string, 4)
	rows[0] = []string{"Durability(sec)"}
	rows[1] = []string{"Path construction attempts"}
	rows[2] = []string{"Latency(ms)"}
	rows[3] = []string{"Bandwidth(KB)"}
	for i := range labels {
		r, b := cells[i][0], cells[i][1]
		rows[0] = append(rows[0], fmtPair(fmt.Sprintf("%.0f", r.durability), fmt.Sprintf("%.0f", b.durability)))
		rows[1] = append(rows[1], fmtPair(fmt.Sprintf("%.1f", r.attempts), fmt.Sprintf("%.1f", b.attempts)))
		rows[2] = append(rows[2], fmtPair(fmt.Sprintf("%.0f", r.latency), fmt.Sprintf("%.0f", b.latency)))
		rows[3] = append(rows[3], fmtPair(fmt.Sprintf("%.1f", r.bandwidth), fmt.Sprintf("%.1f", b.bandwidth)))
	}
	return rows
}

// durabilityCINote renders a 95%-CI note line for a table's durability
// row, giving the multi-seed cells honest error bars.
func durabilityCINote(labels []string, cells [][2]durabilityAgg) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s [±%.0f, ±%.0f]", l, cells[i][0].durabilityCI, cells[i][1].durabilityCI)
	}
	return "durability 95% CI half-widths ([random, biased]): " + strings.Join(parts, "; ")
}

// Tab2 reproduces Table 2: durability, construction attempts, latency
// and bandwidth for CurMix, SimRep(r=2) and SimEra(k=4, r=4), each as a
// [random, biased] pair.
func Tab2(opts Options) (*Result, error) {
	protocols := []struct {
		name   string
		params core.Params
	}{
		{"CurMix", core.Params{Protocol: core.CurMix}},
		{"SimRep(r=2)", core.Params{Protocol: core.SimRep, R: 2}},
		{"SimEra(k=4,r=4)", core.Params{Protocol: core.SimEra, K: 4, R: 4}},
	}
	lifetime := stats.Pareto{Alpha: 1, Beta: 1800}
	cells := make([][2]durabilityAgg, len(protocols))
	labels := make([]string, len(protocols))
	for i, p := range protocols {
		labels[i] = p.name
		r, b, err := durabilityPairs(opts, p.params, lifetime, opts.Seed+int64(i)*49979687)
		if err != nil {
			return nil, err
		}
		cells[i] = [2]durabilityAgg{r, b}
	}
	res := &Result{
		ID:      "tab2",
		Caption: "Performance comparison among three anonymity protocols, cells are [random, biased]",
		Header:  append([]string{"Metric"}, labels...),
		Rows:    durabilityRows(labels, cells),
	}
	res.Notes = append(res.Notes,
		durabilityCINote(labels, cells),
		"paper: durability CurMix [700,1153] < SimRep(2) [1140,1167] < SimEra(4,4) [1377,2472]; attempts CurMix random 8.4 -> SimEra 2.4 -> biased 1",
		"paper shape: redundancy raises durability; biased choice raises durability further, cuts attempts to 1, and costs extra bandwidth",
	)
	return res, nil
}

// Tab3 reproduces Table 3: SimEra(k=4, r=4) with median node lifetimes
// of 20, 30, 60, 80 and 120 minutes.
func Tab3(opts Options) (*Result, error) {
	medians := []int{20, 30, 60, 80, 120}
	params := core.Params{Protocol: core.SimEra, K: 4, R: 4}
	cells := make([][2]durabilityAgg, len(medians))
	labels := make([]string, len(medians))
	for i, m := range medians {
		labels[i] = fmt.Sprintf("%d", m)
		life, err := stats.ParetoWithMedian(1, float64(m)*60)
		if err != nil {
			return nil, err
		}
		r, b, err := durabilityPairs(opts, params, life, opts.Seed+int64(i)*86028121)
		if err != nil {
			return nil, err
		}
		cells[i] = [2]durabilityAgg{r, b}
	}
	res := &Result{
		ID:      "tab3",
		Caption: "SimEra(k=4, r=4) with varying median node lifetime (minutes), cells are [random, biased]",
		Header:  append([]string{"Lifetime(minutes)"}, labels...),
		Rows:    durabilityRows(labels, cells),
	}
	res.Notes = append(res.Notes,
		durabilityCINote(labels, cells),
		"paper shape: lower churn (higher median lifetime) raises durability and cuts construction attempts, especially for random choice",
		"paper: durability random 987->2549, biased 1263->3304 across 20->120 min; attempts random 27.4->1",
	)
	return res, nil
}

// Tab4 reproduces the paper's second Table 3 (Table 4 here): SimEra
// (k=4, r=4) under Pareto, uniform and exponential lifetime
// distributions, all with a mean/median near one hour.
func Tab4(opts Options) (*Result, error) {
	dists := []struct {
		name string
		dist stats.Dist
	}{
		{"Pareto", stats.Pareto{Alpha: 1, Beta: 1800}},
		{"Uniform", stats.Uniform{Lo: 360, Hi: 6840}},
		{"Exponential", stats.Exponential{MeanVal: 3600}},
	}
	params := core.Params{Protocol: core.SimEra, K: 4, R: 4}
	cells := make([][2]durabilityAgg, len(dists))
	labels := make([]string, len(dists))
	for i, d := range dists {
		labels[i] = d.name
		r, b, err := durabilityPairs(opts, params, d.dist, opts.Seed+int64(i)*32452843)
		if err != nil {
			return nil, err
		}
		cells[i] = [2]durabilityAgg{r, b}
	}
	res := &Result{
		ID:      "tab4",
		Caption: "SimEra(k=4, r=4) with different node lifetime distributions, cells are [random, biased]",
		Header:  append([]string{"Distribution"}, labels...),
		Rows:    durabilityRows(labels, cells),
	}
	res.Notes = append(res.Notes,
		durabilityCINote(labels, cells),
		"paper shape: Pareto gives the highest durability; biased beats random under every distribution, even uniform where old nodes die sooner",
		"paper: durability Pareto [1377,2472], Uniform [284,1467], Exponential [1271,2256]",
	)
	return res, nil
}
