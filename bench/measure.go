package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"resilientmix/internal/stats"
)

// sizes are the dimensions of a run. The command line fixes them (they
// are the same on every commit); only the tests shrink them.
type sizes struct {
	windows      int           // timed windows
	window       time.Duration // length of one window
	setupReps    int           // set-ups timed per run; setup_s is their median
	coldCycles   int           // live: establish/deliver/teardown cycles per set-up
	warmup       time.Duration // load run before the timed phase
	fillTW       bool          // equalise the kernel's TIME_WAIT table first
	microBudget  time.Duration // time per microbench row (traced run)
	simWarmup    int64         // sim: simulated seconds of churn before sessions
	simWarmTicks int           // sim: ticks of traffic before the timed phase
	simCheck     int           // sim: ticks to the pinned-count checkpoint
}

func defaultSizes(seconds int) sizes {
	return sizes{
		windows:      seconds,
		window:       time.Second,
		setupReps:    7,
		coldCycles:   32,
		warmup:       2 * time.Second,
		fillTW:       true,
		microBudget:  60 * time.Millisecond,
		simWarmup:    3600,
		simWarmTicks: 180,
		simCheck:     360,
	}
}

// counters is one reading of the process- and host-wide counts a phase
// is charged with. ReadMemStats stops the world, so readings are taken
// at phase boundaries only.
type counters struct {
	at          time.Time
	cpu         float64
	gcCPU       float64
	mallocs     uint64
	totalAlloc  uint64
	numGC       uint32
	loBytes     uint64
	activeOpens uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	var gc float64
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		gc = sample[0].Value.Float64()
	}
	return counters{
		at:          time.Now(),
		cpu:         cpuSeconds(),
		gcCPU:       gc,
		mallocs:     ms.Mallocs,
		totalAlloc:  ms.TotalAlloc,
		numGC:       ms.NumGC,
		loBytes:     loopbackRxBytes(),
		activeOpens: tcpActiveOpens(),
	}
}

// windowClock cuts the timed phase into windows at message completions:
// a window closes at the first completion at least `window` after the
// previous one closed, and is charged exactly the messages and CPU
// between the two readings.
//
// The timing metrics are read from the least-disturbed windows (see
// bestWindows): on a shared host interference only ever subtracts, it
// comes in stretches of seconds, and a run is too short to average it
// out, so a median over windows still moves with the share of the run
// that was disturbed.
type windowClock struct {
	window    time.Duration
	want      int
	lastAt    time.Time
	lastCPU   float64
	count     int
	rates     []float64 // messages per second, per window
	cpuPerMsg []float64 // CPU µs per message, per window
	latP50    []float64 // median latency of the window's messages
	lat       []float64 // latencies of the window now open
}

func newWindowClock(window time.Duration, want int, now time.Time) *windowClock {
	return &windowClock{window: window, want: want, lastAt: now, lastCPU: cpuSeconds()}
}

// done accounts n delivered messages at time now and reports whether all
// wanted windows have closed.
func (w *windowClock) done(now time.Time, n int, lat ...float64) bool {
	w.count += n
	w.lat = append(w.lat, lat...)
	if el := now.Sub(w.lastAt); el >= w.window && w.count > 0 {
		cpu := cpuSeconds()
		w.rates = append(w.rates, float64(w.count)/el.Seconds())
		w.cpuPerMsg = append(w.cpuPerMsg, (cpu-w.lastCPU)*1e6/float64(w.count))
		w.latP50 = append(w.latP50, median(w.lat))
		w.lastAt, w.lastCPU, w.count, w.lat = now, cpu, 0, w.lat[:0]
	}
	return len(w.rates) >= w.want
}

// bestWindows is the mean of the keep best per-window values: the largest
// when higher is better, the smallest otherwise. It is what the system
// sustains for keep windows when the host leaves it alone.
const keepWindows = 3

func bestWindows(perWindow []float64, higher bool) float64 {
	s := append([]float64(nil), perWindow...)
	if higher {
		sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	} else {
		sort.Float64s(s)
	}
	if len(s) > keepWindows {
		s = s[:keepWindows]
	}
	return stats.Mean(s)
}

// tracedWindow reports whether the window now open is one a traced run
// records spans in: windows alternate, so drift cancels when the two
// halves are compared.
func (w *windowClock) tracedWindow() bool { return len(w.rates)%2 == 0 }

// traceOverhead is the CPU per message of the traced windows over that
// of the untraced ones, minus one.
func (w *windowClock) traceOverhead() float64 {
	var on, off []float64
	for i, c := range w.cpuPerMsg {
		if i%2 == 0 {
			on = append(on, c)
		} else {
			off = append(off, c)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string           // correctness violations; empty means correct
	e2e       map[string]float64 // end-to-end metrics (untraced run)
	layer     map[string]float64 // per-layer metrics (traced run)
	info      map[string]float64 // context, never gated
	samples   int                // latency samples behind latency_p50_ms
	host      hostRecord
	table     []layerRow // traced run: span self times
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
		info:     make(map[string]float64),
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// chargePhase fills the count-based end-to-end metrics from the readings
// around the timed phase.
func (r *result) chargePhase(a, b counters, delivered int, payloadBytes float64, wireBytes float64) {
	d := float64(delivered)
	r.e2e["allocs_per_msg"] = safeDiv(float64(b.mallocs-a.mallocs), d)
	r.e2e["alloc_kb_per_msg"] = safeDiv(float64(b.totalAlloc-a.totalAlloc)/1024, d)
	r.e2e["wire_bytes_per_payload_byte"] = safeDiv(wireBytes, payloadBytes)
	r.e2e["delivered_share"] = safeDiv(d, float64(r.attempted))
	cpu := b.cpu - a.cpu
	r.layer["runtime.gc_cpu_share"] = safeDiv(b.gcCPU-a.gcCPU, cpu)
	r.layer["runtime.gc_cycles_per_s"] = safeDiv(float64(b.numGC-a.numGC), b.at.Sub(a.at).Seconds())
	r.info["info.phase_s"] = b.at.Sub(a.at).Seconds()
	r.info["info.cpu_share_of_wall"] = safeDiv(cpu, b.at.Sub(a.at).Seconds())
}
