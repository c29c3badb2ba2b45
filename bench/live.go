package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"resilientmix/internal/livenet"
)

// liveSpec is the shape of one live workload.
type liveSpec struct {
	name    string
	msgSize int
	k, l, r int // paths, relays per path, replication factor (m = k/r)
	spares  int // relays beyond the k*l in use, for §4.5 repair
	repair  bool
	paceHz  int // 0: closed loop with one message in flight; else open loop at this rate
}

var liveSpecs = []liveSpec{
	{name: "live_small", msgSize: 1 << 10, k: 2, l: 2, r: 2},
	{name: "live_bulk", msgSize: 256 << 10, k: 4, l: 2, r: 2},
	{name: "live_repair", msgSize: 1 << 10, k: 4, l: 2, r: 2, spares: 4, repair: true, paceHz: 100},
}

func liveSpecByName(name string) (liveSpec, bool) {
	for _, s := range liveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return liveSpec{}, false
}

const (
	awaitLimit    = 10 * time.Second // a message unresolved this long is failed
	faultEvery    = 2 * time.Second
	faultDowntime = time.Second
	faultFirst    = time.Second // first crash, after the timed phase starts
	roleProbe     = 150 * time.Millisecond
	alivePoll     = 2 * time.Millisecond
	lateDeadline  = 100 * time.Millisecond
)

func (s liveSpec) options() livenet.SessionOptions {
	o := livenet.SessionOptions{R: s.r}
	if s.repair {
		o.Repair = true
		o.ProbeInterval = 250 * time.Millisecond
		o.AckTimeout = time.Second
	}
	return o
}

func (s liveSpec) fleetSize() int { return firstRelay + s.k*s.l + s.spares }

// msgTimes are the instants the harness sees for one message.
type msgTimes struct {
	ctr     uint64
	due     time.Time // open loop: when the message was due; closed loop: == send
	send    time.Time // Send called
	sent    time.Time // Send returned
	arrived time.Time // collector callback ran (payload verified)
	acked   time.Time // Await returned
	ok      bool
}

// liveRun drives one session of one fleet.
type liveRun struct {
	spec liveSpec
	f    *fleet
	v    *verifier
	sess *livenet.LiveSession
	buf  []byte
	ctr  uint64
	// tr is nil in an untraced run; traceOn says whether the current
	// window of a traced run records spans (windows alternate).
	tr      *tracer
	traceOn func() bool

	// Await runs under ctx; the watchdog cancels it awaitLimit after the
	// last reset, so a hung message fails instead of hanging the run.
	ctx      context.Context
	cancel   context.CancelFunc
	watchdog *time.Timer
	verdict  *time.Timer

	early map[uint64]time.Time // deliveries read ahead of their Await
}

func newLiveRun(spec liveSpec, f *fleet, v *verifier, sess *livenet.LiveSession) *liveRun {
	r := &liveRun{
		spec: spec, f: f, v: v, sess: sess,
		buf:     append([]byte(nil), v.pay.base...),
		verdict: time.NewTimer(time.Hour),
		early:   make(map[uint64]time.Time),
	}
	r.arm()
	return r
}

func (r *liveRun) arm() {
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.watchdog = time.AfterFunc(awaitLimit, r.cancel)
}

func (r *liveRun) stop() {
	r.watchdog.Stop()
	r.verdict.Stop()
	r.cancel()
}

// send stamps and sends the next message.
func (r *liveRun) send() (msgTimes, uint64, error) {
	r.ctr++
	r.v.pay.stamp(r.buf, r.ctr)
	mt := msgTimes{ctr: r.ctr, send: time.Now()}
	mt.due = mt.send
	mid, err := r.sess.Send(r.buf)
	mt.sent = time.Now()
	return mt, mid, err
}

// await blocks until the message is acknowledged and its payload has
// been verified at the responder, or awaitLimit passes.
func (r *liveRun) await(mt *msgTimes, mid uint64) {
	r.watchdog.Reset(awaitLimit)
	err := r.sess.Await(r.ctx, mid)
	mt.acked = time.Now()
	if err != nil {
		if r.ctx.Err() != nil {
			r.arm()
		}
		return
	}
	// The responder acks a segment before it reconstructs, so the ack
	// can overtake the delivery callback: wait for the verified payload.
	if at, ok := r.early[mt.ctr]; ok {
		delete(r.early, mt.ctr)
		mt.arrived, mt.ok = at, true
		return
	}
	r.verdict.Reset(awaitLimit)
	for {
		select {
		case d := <-r.v.delivered:
			if d.ctr == mt.ctr {
				mt.arrived, mt.ok = d.at, true
				return
			}
			if d.ctr > mt.ctr {
				r.early[d.ctr] = d.at
			}
		case <-r.verdict.C:
			return
		}
	}
}

// record turns a finished message into spans.
func (r *liveRun) record(mt msgTimes) {
	if r.tr == nil || !r.traceOn() {
		return
	}
	root := r.tr.add("msg", mt.due, mt.acked, -1, mt.ctr)
	r.tr.add("livenet.Send", mt.send, mt.sent, root, mt.ctr)
	r.tr.add("livenet.Await", mt.sent, mt.acked, root, mt.ctr)
	if mt.ok {
		r.tr.add("collector.callback", mt.arrived, mt.arrived, root, mt.ctr)
	}
}

// coldCycle establishes the workload's session, delivers one message and
// (unless keep) tears the session down.
func coldCycle(spec liveSpec, f *fleet, v *verifier, tr *tracer, keep bool) (*liveRun, float64, float64, error) {
	t0 := time.Now()
	sess, err := f.nodes[initiatorID].NewLiveSessionOpts(relayLists(spec.k, spec.l), responderID, spec.options())
	t1 := time.Now()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: establish: %w", spec.name, err)
	}
	tr.add("livenet.NewLiveSessionOpts", t0, t1, -1, 0)
	r := newLiveRun(spec, f, v, sess)
	mt, mid, err := r.send()
	if err == nil {
		r.await(&mt, mid)
	}
	t2 := time.Now()
	if !mt.ok {
		r.stop()
		sess.Teardown()
		return nil, 0, 0, fmt.Errorf("%s: first message of a fresh session not delivered (send error: %v)", spec.name, err)
	}
	establishMS := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	firstMS := float64(t2.Sub(t1).Nanoseconds()) / 1e6
	if keep {
		return r, establishMS, firstMS, nil
	}
	r.stop()
	sess.Teardown()
	return nil, establishMS, firstMS, nil
}

// liveSetup times sz.setupReps set-ups (fleet start plus sz.coldCycles
// cold cycles) and keeps the last fleet and its last session.
func liveSetup(spec liveSpec, seed int64, sz sizes, tr *tracer, res *result) (*liveRun, error) {
	v := newVerifier(newPayloads(seed, spec.msgSize))
	var units, establish, first []float64
	var kept *liveRun
	for rep := 0; rep < sz.setupReps; rep++ {
		last := rep == sz.setupReps-1
		t0 := time.Now()
		f, err := startFleet(spec.fleetSize(), v.onData())
		if err != nil {
			return nil, err
		}
		tr.add("fleet.start", t0, time.Now(), -1, 0)
		for c := 0; c < sz.coldCycles; c++ {
			r, e, m, err := coldCycle(spec, f, v, tr, last && c == sz.coldCycles-1)
			if err != nil {
				f.close()
				return nil, err
			}
			establish = append(establish, e)
			first = append(first, m)
			if r != nil {
				kept = r
			}
		}
		units = append(units, time.Since(t0).Seconds())
		if !last {
			f.close()
		}
	}
	res.e2e["setup_s"] = median(units)
	res.layer["livenet.session.establish_ms"] = median(establish)
	res.layer["livenet.session.first_msg_ms"] = median(first)
	res.info["info.setup_units"] = float64(len(units))
	res.info["info.setup_spread"] = safeDiv(quantile(units, 0.75)-quantile(units, 0.25), median(units))
	return kept, nil
}

// closedLoop sends with one message in flight, handing every finished
// message to stop, until stop says so.
func (r *liveRun) closedLoop(stop func(mt msgTimes) bool) {
	for {
		mt, mid, err := r.send()
		if err == nil {
			r.await(&mt, mid)
		} else {
			mt.acked = mt.sent
		}
		r.record(mt)
		if stop(mt) {
			return
		}
	}
}

// openLoop sends at spec.paceHz regardless of completions: message i is
// due at start+i/paceHz and timed from that instant. One awaiter
// goroutine resolves messages in order and hands each to stop; the loop
// runs until stop says so.
func (r *liveRun) openLoop(start time.Time, stop func(mt msgTimes) bool) {
	type sentMsg struct {
		mt  msgTimes
		mid uint64
		err error
	}
	period := time.Second / time.Duration(r.spec.paceHz)
	// Holds a second of backlog (a Send blocked on a dead first hop),
	// so the sender never waits for the awaiter.
	queue := make(chan sentMsg, 4*r.spec.paceHz)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-quit:
					return
				}
			}
			select {
			case <-quit:
				return
			default:
			}
			mt, mid, err := r.send()
			mt.due = due
			queue <- sentMsg{mt, mid, err}
		}
	}()
	stopped := false
	for sm := range queue {
		if stopped {
			continue // drain what was sent after the phase ended
		}
		mt := sm.mt
		if sm.err == nil {
			r.await(&mt, sm.mid)
		} else {
			mt.acked = mt.sent
		}
		r.record(mt)
		if stop(mt) {
			stopped = true
			close(quit)
		}
	}
	wg.Wait()
}

// fault is one entry of the seeded crash schedule.
type fault struct {
	at       time.Duration // crash instant, from the start of the timed phase
	terminal bool          // crash a terminal relay (else a first-hop relay)
	pick     int           // which of the relays in that role, modulo their number
}

// faultSchedule derives the crash schedule from the seed: one crash
// every faultEvery, alternating between a terminal and a first-hop relay
// of a live path (a dead first hop blocks Send in dial retry, a dead
// terminal relay does not, so a fixed mix keeps runs comparable), the
// path drawn from the seed. Only crashes whose repair can finish inside
// the phase are scheduled.
func faultSchedule(seed int64, phase time.Duration) []fault {
	rng := rand.New(rand.NewSource(seed))
	var out []fault
	for at := faultFirst; at+faultEvery <= phase; at += faultEvery {
		out = append(out, fault{at: at, terminal: len(out)%2 == 0, pick: rng.Intn(1 << 16)})
	}
	return out
}

// faultOutcome is what the harness observed for one crash.
type faultOutcome struct {
	node               int
	crashed            time.Time
	detected, repaired time.Time // AlivePaths fell below k / returned to k
}

// relayRoles finds, from outside, which relays currently serve a live
// path as first hop (they send reverse frames to the initiator) and
// which as terminal relay (they deliver to the responder), by watching
// the nodes' live.peer_out.* counters for roleProbe.
func (f *fleet) relayRoles() (firstHop, terminal []int) {
	read := func() []map[string]uint64 {
		out := make([]map[string]uint64, len(f.nodes))
		for i := firstRelay; i < len(f.nodes); i++ {
			if f.nodes[i] != nil {
				out[i] = f.nodes[i].Metrics().CountersWithPrefix("live.peer_out.")
			}
		}
		return out
	}
	a := read()
	time.Sleep(roleProbe)
	b := read()
	// CountersWithPrefix keys by the remainder of the name: the peer id.
	toInit, toResp := strconv.Itoa(initiatorID), strconv.Itoa(responderID)
	for i := firstRelay; i < len(f.nodes); i++ {
		if b[i][toInit] > a[i][toInit] {
			firstHop = append(firstHop, i)
		}
		if b[i][toResp] > a[i][toResp] {
			terminal = append(terminal, i)
		}
	}
	sort.Ints(firstHop)
	sort.Ints(terminal)
	return firstHop, terminal
}

// playFaults applies the schedule against the running session and
// watches AlivePaths to time detection and repair. It returns when the
// schedule is done or quit closes.
func (r *liveRun) playFaults(start time.Time, schedule []fault, quit <-chan struct{}) ([]faultOutcome, error) {
	sleepUntil := func(t time.Time) bool {
		select {
		case <-time.After(time.Until(t)):
			return true
		case <-quit:
			return false
		}
	}
	// The initiator's counts of condemned and rebuilt paths (the
	// initiator is never crashed, so the handles stay valid).
	reg := r.f.nodes[initiatorID].Metrics()
	deadC, rebuiltC := reg.Counter("session.paths_dead"), reg.Counter("live.repair.repaired")
	var out []faultOutcome
	for _, ft := range schedule {
		if !sleepUntil(start.Add(ft.at - roleProbe)) {
			return out, nil
		}
		firstHop, terminal := r.f.relayRoles()
		pool := firstHop
		if ft.terminal {
			pool = terminal
		}
		if len(pool) == 0 {
			return out, fmt.Errorf("fault at %v: no relay found in the wanted role (first hops %v, terminals %v)", ft.at, firstHop, terminal)
		}
		node := pool[ft.pick%len(pool)]
		t0 := time.Now()
		r.f.crash(node)
		fo := faultOutcome{node: node, crashed: t0}
		r.tr.add("fault.crash", t0, time.Now(), -1, uint64(node))
		// The restart runs on its own timer so the watch below never
		// pauses: a repair takes ~2 ms and falls next to the restart.
		restarted := make(chan error, 1)
		time.AfterFunc(faultDowntime, func() {
			t := time.Now()
			restarted <- r.f.restart(node)
			r.tr.add("fault.restart", t, time.Now(), -1, uint64(node))
		})
		// Watch the session every alivePoll: detection is the path being
		// condemned, repair its replacement standing and AlivePaths back
		// at k. The initiator's counters mark both events, so a repair
		// shorter than the poll interval is still seen.
		dead, rebuilt := deadC.Value(), rebuiltC.Value()
		deadline := t0.Add(faultEvery - roleProbe)
	watch:
		for time.Now().Before(deadline) {
			select {
			case <-quit:
				break watch
			default:
			}
			now := time.Now()
			if fo.detected.IsZero() && deadC.Value() > dead {
				fo.detected = now
			}
			if !fo.detected.IsZero() && rebuiltC.Value() > rebuilt && r.sess.AlivePaths() == r.spec.k {
				fo.repaired = now
				break
			}
			time.Sleep(alivePoll)
		}
		if err := <-restarted; err != nil {
			return append(out, fo), err
		}
		out = append(out, fo)
	}
	return out, nil
}

// runLive runs one live workload end to end.
func runLive(spec liveSpec, seed int64, sz sizes, traced bool) (*result, error) {
	res := newResult(spec.name)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	baseGoroutines := runtime.NumGoroutine()

	run, err := liveSetup(spec, seed, sz, tr, res)
	if err != nil {
		return nil, err
	}
	f := run.f
	cleanup := func() {
		run.stop()
		run.sess.Teardown()
		f.close()
	}

	// Warm-up: bring the kernel's TIME_WAIT table to the state the
	// workload reaches by itself, then run the load until the phase
	// starts.
	if sz.fillTW {
		made, took, err := fillTimeWait(8 * time.Second)
		if err != nil {
			cleanup()
			return nil, err
		}
		res.info["info.tw_fill_conns"] = float64(made)
		res.info["info.tw_fill_s"] = took.Seconds()
	}
	res.info["info.tw_at_phase_start"] = float64(timeWaitCount())

	phase := time.Duration(sz.windows) * sz.window
	var msgs []msgTimes
	var outcomes []faultOutcome
	var before, after counters
	var framesBefore, errsBefore, probesBefore, retransBefore uint64
	var clock *windowClock
	var phaseStart time.Time
	readFleet := func() (uint64, uint64, uint64, uint64) {
		return f.counterSum("live.frames_out"), f.counterSum("live.send_errors"),
			f.counterSum("live.repair.probes"), f.counterSum("session.retransmits")
	}
	beginPhase := func(now time.Time) {
		framesBefore, errsBefore, probesBefore, retransBefore = readFleet()
		before = readCounters()
		phaseStart = now
		clock = newWindowClock(sz.window, sz.windows, now)
		run.tr, run.traceOn = tr, clock.tracedWindow
	}
	// stop starts the timed phase at the first completion after the
	// warm-up and ends it when every window has closed.
	warmEnd := time.Now().Add(sz.warmup)
	stop := func(mt msgTimes) bool {
		if clock == nil {
			if !mt.acked.Before(warmEnd) {
				beginPhase(mt.acked)
			}
			return false
		}
		res.attempted++
		if !mt.ok {
			res.failed++
			return time.Since(phaseStart) > phase+awaitLimit
		}
		msgs = append(msgs, mt)
		return clock.done(mt.acked, 1, float64(mt.acked.Sub(mt.due).Nanoseconds())/1e6)
	}

	if spec.paceHz == 0 {
		run.closedLoop(stop)
	} else {
		// The schedule is laid out from the nominal start of the timed
		// phase; the generator started sz.warmup earlier.
		genStart := time.Now()
		quit := make(chan struct{})
		var fwg sync.WaitGroup
		var ferr error
		if spec.repair {
			fwg.Add(1)
			go func() {
				defer fwg.Done()
				outcomes, ferr = run.playFaults(genStart.Add(sz.warmup), faultSchedule(seed, phase), quit)
			}()
		}
		run.openLoop(genStart, stop)
		close(quit)
		fwg.Wait()
		if ferr != nil {
			cleanup()
			return nil, ferr
		}
	}
	after = readCounters()
	framesAfter, errsAfter, probesAfter, retransAfter := readFleet()
	if after.loBytes == before.loBytes || after.activeOpens == before.activeOpens {
		cleanup()
		return nil, fmt.Errorf("%s: /proc/net/dev or /proc/net/snmp did not move over the phase: cannot count wire bytes and connections on this host", spec.name)
	}

	// Metrics of the timed phase.
	delivered := len(msgs)
	lat := make([]float64, 0, delivered)
	var sendCall, forward, ackReturn, late []float64
	for _, mt := range msgs {
		lat = append(lat, float64(mt.acked.Sub(mt.due).Nanoseconds())/1e6)
		sendCall = append(sendCall, float64(mt.sent.Sub(mt.send).Nanoseconds())/1e3)
		forward = append(forward, float64(mt.arrived.Sub(mt.send).Nanoseconds())/1e6)
		ackReturn = append(ackReturn, float64(mt.acked.Sub(mt.arrived).Nanoseconds())/1e6)
		late = append(late, float64(mt.send.Sub(mt.due).Nanoseconds())/1e6)
	}
	res.samples = len(lat)
	res.e2e["msgs_per_s"] = bestWindows(clock.rates, true)
	if spec.paceHz != 0 {
		// Paced: the best windows are the bursts after a stall. The
		// delivered rate is the median window; it equals the offered
		// rate unless the system falls behind.
		res.e2e["msgs_per_s"] = median(clock.rates)
	}
	res.e2e["latency_p50_ms"] = bestWindows(clock.latP50, false)
	res.layer["runtime.cpu_us_per_msg"] = bestWindows(clock.cpuPerMsg, false)
	res.layer["livenet.session.latency_p50_all_ms"] = median(lat)
	payloadBytes := float64(delivered) * float64(spec.msgSize)
	res.chargePhase(before, after, delivered, payloadBytes, float64(after.loBytes-before.loBytes))
	d := float64(delivered)
	res.layer["livenet.tcp_conns_per_msg"] = safeDiv(float64(after.activeOpens-before.activeOpens), d)
	res.layer["livenet.frames_per_msg"] = safeDiv(float64(framesAfter-framesBefore), d)
	res.layer["livenet.send_errors"] = float64(errsAfter - errsBefore)
	res.layer["livenet.session.send_call_us"] = median(sendCall)
	res.layer["livenet.session.forward_ms"] = median(forward)
	res.layer["livenet.session.ack_return_ms"] = median(ackReturn)
	res.layer["livenet.session.latency_p99_ms"] = quantile(lat, 0.99)
	res.layer["load.generator_late_p99_ms"] = quantile(late, 0.99)
	onTime := 0
	for _, l := range lat {
		if l <= float64(lateDeadline.Milliseconds()) {
			onTime++
		}
	}
	res.layer["load.on_time_share"] = safeDiv(float64(onTime), d)
	res.layer["obs.trace_overhead_share"] = clock.traceOverhead()
	res.info["info.windows"] = float64(len(clock.rates))
	res.info["info.window_rate_spread"] = safeDiv(quantile(clock.rates, 0.75)-quantile(clock.rates, 0.25), median(clock.rates))

	if spec.repair {
		var detect, rebuild, recovery []float64
		hits := 0
		for _, fo := range outcomes {
			if fo.detected.IsZero() {
				continue
			}
			hits++
			detect = append(detect, float64(fo.detected.Sub(fo.crashed).Nanoseconds())/1e6)
			if fo.repaired.IsZero() {
				res.problem("fault on node %d: path not repaired before the next fault", fo.node)
				continue
			}
			rebuild = append(rebuild, float64(fo.repaired.Sub(fo.detected).Nanoseconds())/1e6)
			recovery = append(recovery, float64(fo.repaired.Sub(fo.crashed).Nanoseconds())/1e6)
		}
		res.layer["livenet.repair.recovery_p50_ms"] = median(recovery)
		res.layer["livenet.repair.detect_ms"] = median(detect)
		res.layer["livenet.repair.rebuild_ms"] = median(rebuild)
		res.layer["livenet.repair.probes_per_s"] = safeDiv(float64(probesAfter-probesBefore), after.at.Sub(before.at).Seconds())
		res.layer["livenet.repair.retransmits"] = float64(retransAfter - retransBefore)
		res.info["info.faults_applied"] = float64(len(outcomes))
		res.info["info.faults_hit_live_path"] = float64(hits)
		if want := len(faultSchedule(seed, phase)); hits != want {
			res.problem("%d of %d scheduled faults lowered AlivePaths", hits, want)
		}
		if alive := run.sess.AlivePaths(); alive != spec.k {
			res.problem("session ended with %d of %d paths alive", alive, spec.k)
		}
	}
	if c := run.v.corrupt.Load(); c != 0 {
		res.problem("%d payloads differed at the responder", c)
	}

	cleanup()
	res.info["info.goroutines_leaked"] = float64(goroutinesAbove(baseGoroutines))
	if tr != nil {
		spans := tr.resolve()
		res.table = selfTimes(spans)
		if err := writeSpans(tracePath(spec.name), spans); err != nil {
			return nil, err
		}
		res.info["info.spans"] = float64(len(spans))
	}
	return res, nil
}

// goroutinesAbove waits up to 100 ms for the goroutine count to
// return to base and reports how many are left above it: goroutines of
// the fleet that survived Teardown and Close.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
