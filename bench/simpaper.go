package main

import (
	"fmt"
	"time"

	"resilientmix/internal/core"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// sim_paper: the paper's evaluation world (§6.1) under steady traffic.
const (
	simNodes    = 1024
	simPairs    = 64
	simMsgSize  = 1 << 10
	simTick     = 10 * sim.Second // one message per session per tick
	simProbe    = 30 * sim.Second
	simAttempts = 5
)

// pinnedCounts are sim_paper's exact counts at the checkpoint
// (sizes.simCheck ticks into the timed phase) for defaultSeed with the
// default sizes. The simulator is deterministic: any other reading means
// the protocol's behaviour changed, not its speed.
var pinnedCounts = struct {
	delivered int
	events    uint64
	netBytes  uint64
}{delivered: 23040, events: 1036073, netBytes: 334082142}

// simWorld is one built world with its established sessions.
type simWorld struct {
	w        *core.World
	sessions []*core.Session
	pay      *payloads

	sentAt    []sim.Time // by message counter
	delivered []bool
	nDeliv    int
	corrupt   int
	dup       int
	latMS     []float64 // simulated send -> reconstruct, ms
}

// buildSimWorld builds the world, warms churn up and establishes every
// session. It returns the wall time of core.NewWorld alone and of the
// establishment phase.
func buildSimWorld(seed int64, sz sizes, tr *tracer) (*simWorld, time.Duration, time.Duration, error) {
	pinned := make([]netsim.NodeID, 2*simPairs)
	for i := range pinned {
		pinned[i] = netsim.NodeID(i)
	}
	t0 := time.Now()
	w, err := core.NewWorld(core.WorldConfig{
		N:        simNodes,
		Seed:     seed,
		Lifetime: stats.Pareto{Alpha: 1, Beta: 1800},
		Pinned:   pinned,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	build := time.Since(t0)
	tr.add("core.NewWorld", t0, time.Now(), -1, 0)
	if err := w.StartChurn(); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	w.Run(sim.Time(sz.simWarmup) * sim.Second)
	tr.add("sim.Run.warmup", t1, time.Now(), -1, 0)

	sw := &simWorld{w: w, pay: newPayloads(seed, simMsgSize), sentAt: make([]sim.Time, 1), delivered: make([]bool, 1)}
	t2 := time.Now()
	established := 0
	for i := 0; i < simPairs; i++ {
		init, resp := netsim.NodeID(2*i), netsim.NodeID(2*i+1)
		sess, err := w.NewSession(init, resp, core.Params{
			Protocol: core.SimEra, K: 4, R: 2, L: 3,
			Strategy: mixchoice.Biased, MaxEstablishAttempts: simAttempts,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		sess.OnEstablished = func(ok bool, _ int) {
			if ok {
				established++
			}
		}
		sess.EnableRepair(simProbe)
		w.Receivers[resp].SetOnDelivered(sw.onDelivered)
		sess.Establish()
		sw.sessions = append(sw.sessions, sess)
	}
	w.Run(w.Eng.Now() + sim.Minute)
	establish := time.Since(t2)
	tr.add("core.Establish", t2, time.Now(), -1, 0)
	if established != simPairs {
		return nil, 0, 0, fmt.Errorf("sim_paper: %d of %d sessions established", established, simPairs)
	}
	return sw, build, establish, nil
}

func (sw *simWorld) onDelivered(_ uint64, data []byte, at sim.Time) {
	ctr, ok := sw.pay.verify(data)
	if !ok || ctr == 0 || ctr >= uint64(len(sw.sentAt)) {
		sw.corrupt++
		return
	}
	if sw.delivered[ctr] {
		sw.dup++
		return
	}
	sw.delivered[ctr] = true
	sw.nDeliv++
	sw.latMS = append(sw.latMS, float64(at-sw.sentAt[ctr])/float64(sim.Millisecond))
}

// tick sends one message per session and runs the world one tick on.
// It returns the messages attempted and refused.
func (sw *simWorld) tick(buf []byte, tr *tracer, tickNo uint64, sendUS *[]float64) (attempted, refused int) {
	var root int
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
		root = tr.begin("msg", t0, -1, tickNo)
	}
	for _, sess := range sw.sessions {
		ctr := uint64(len(sw.sentAt))
		sw.pay.stamp(buf, ctr)
		sw.sentAt = append(sw.sentAt, sw.w.Eng.Now())
		sw.delivered = append(sw.delivered, false)
		attempted++
		var a time.Time
		if tr != nil {
			a = time.Now()
		}
		_, err := sess.SendMessage(buf)
		if tr != nil {
			b := time.Now()
			tr.add("core.SendMessage", a, b, root, tickNo)
			*sendUS = append(*sendUS, float64(b.Sub(a).Nanoseconds())/1e3)
		}
		if err != nil {
			refused++
		}
	}
	var a time.Time
	if tr != nil {
		a = time.Now()
	}
	sw.w.Run(sw.w.Eng.Now() + simTick)
	if tr != nil {
		b := time.Now()
		tr.add("sim.Engine.Run", a, b, root, tickNo)
		tr.finish(root, b)
	}
	return attempted, refused
}

// runSim runs the sim_paper workload end to end.
func runSim(seed int64, sz sizes, traced bool) (*result, error) {
	res := newResult("sim_paper")
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up: sz.setupReps world builds, the last one kept.
	var units, builds, establishes []float64
	var sw *simWorld
	for rep := 0; rep < sz.setupReps; rep++ {
		t0 := time.Now()
		w, build, establish, err := buildSimWorld(seed, sz, tr)
		if err != nil {
			return nil, err
		}
		units = append(units, time.Since(t0).Seconds())
		builds = append(builds, float64(build.Nanoseconds())/1e6)
		establishes = append(establishes, float64(establish.Nanoseconds())/1e3/simPairs)
		sw = w
	}
	res.e2e["setup_s"] = median(units)
	res.layer["core.world_build_ms"] = median(builds)
	res.layer["core.session.establish_us"] = median(establishes)
	res.info["info.setup_units"] = float64(len(units))
	res.info["info.setup_spread"] = safeDiv(quantile(units, 0.75)-quantile(units, 0.25), median(units))

	buf := append([]byte(nil), sw.pay.base...)
	// A fixed number of warm-up ticks, not a time: the checkpoint counts
	// below must not depend on the host's speed.
	tickNo := uint64(0)
	for ; tickNo < uint64(sz.simWarmTicks); tickNo++ {
		sw.tick(buf, nil, tickNo, nil)
	}

	netBytes := sw.w.Reg.Counter("net.bytes")
	replaced := sw.w.Reg.Counter("session.paths_replaced")
	before := readCounters()
	events0, bytes0, repl0, deliv0 := sw.w.Eng.Executed(), netBytes.Value(), replaced.Value(), sw.nDeliv
	lat0 := len(sw.latMS)
	clock := newWindowClock(sz.window, sz.windows, before.at)
	var sendUS []float64
	var check struct {
		reached   bool
		delivered int
		events    uint64
		netBytes  uint64
	}
	ticks := 0
	for done := false; !done || ticks < sz.simCheck; {
		tickNo++
		ticks++
		var ttr *tracer
		if traced && clock.tracedWindow() {
			ttr = tr
		}
		d0 := sw.nDeliv
		attempted, refused := sw.tick(buf, ttr, tickNo, &sendUS)
		res.attempted += attempted
		res.failed += refused
		done = clock.done(time.Now(), sw.nDeliv-d0)
		if ticks == sz.simCheck {
			check.reached = true
			check.delivered = sw.nDeliv - deliv0
			check.events = sw.w.Eng.Executed() - events0
			check.netBytes = netBytes.Value() - bytes0
		}
	}
	after := readCounters()
	delivered := sw.nDeliv - deliv0
	// Every message had a full tick (10 simulated s) to arrive; what is
	// still missing is lost.
	res.failed = res.attempted - delivered
	events := sw.w.Eng.Executed() - events0
	wall := after.at.Sub(before.at).Seconds()

	lat := sw.latMS[lat0:]
	res.samples = len(lat)
	res.e2e["msgs_per_s"] = bestWindows(clock.rates, true)
	res.e2e["latency_p50_ms"] = median(lat) // simulated time: exact per seed and tick count
	res.layer["runtime.cpu_us_per_msg"] = bestWindows(clock.cpuPerMsg, false)
	res.chargePhase(before, after, delivered, float64(delivered)*simMsgSize, float64(netBytes.Value()-bytes0))
	res.layer["sim.events_per_s"] = safeDiv(float64(events), wall)
	res.layer["core.events_per_msg"] = safeDiv(float64(events), float64(delivered))
	res.layer["core.paths_replaced"] = float64(replaced.Value() - repl0)
	res.layer["core.session.send_message_us"] = median(sendUS)
	res.layer["core.latency_p99_ms"] = quantile(lat, 0.99)
	res.layer["obs.trace_overhead_share"] = clock.traceOverhead()
	res.info["info.windows"] = float64(len(clock.rates))
	res.info["info.ticks"] = float64(ticks)
	res.info["info.window_rate_spread"] = safeDiv(quantile(clock.rates, 0.75)-quantile(clock.rates, 0.25), median(clock.rates))
	res.info["info.check_delivered"] = float64(check.delivered)
	res.info["info.check_events"] = float64(check.events)
	res.info["info.check_net_bytes"] = float64(check.netBytes)

	if sw.corrupt != 0 || sw.dup != 0 {
		res.problem("%d payloads differed and %d were delivered twice at the receivers", sw.corrupt, sw.dup)
	}
	if seed == defaultSeed && sz == defaultSizes(sz.windows) {
		p := pinnedCounts
		if check.delivered != p.delivered || check.events != p.events || check.netBytes != p.netBytes {
			res.problem("sim_paper checkpoint at seed %d: delivered %d events %d net bytes %d, pinned %d %d %d",
				seed, check.delivered, check.events, check.netBytes, p.delivered, p.events, p.netBytes)
		}
	}
	if tr != nil {
		spans := tr.resolve()
		res.table = selfTimes(spans)
		if err := writeSpans(tracePath("sim_paper"), spans); err != nil {
			return nil, err
		}
		res.info["info.spans"] = float64(len(spans))
	}
	return res, nil
}
