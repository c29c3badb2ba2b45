package rules

import "time"

// Default rule parameters. Metric names are the sanitized Prometheus
// forms the recorder stores (internal/cluster writes one series per
// /metrics sample per node, plus synthetic up/ready probes).
const (
	// DefaultWindow bounds rate and burn observations.
	DefaultWindow = 10 * time.Second
	// silentWindow is shorter: a relay that moved nothing for 5s
	// while the cluster carried traffic is already suspicious.
	silentWindow = 5 * time.Second
	// flapWindow bounds the readiness flap count.
	flapWindow = 20 * time.Second
)

// micros converts a duration to the microsecond windows rules use.
func micros(d time.Duration) int64 { return d.Microseconds() }

// Defaults is the standing cluster ruleset, the only anomaly detector
// the fleet tooling has — every anonctl view (status, smoke, record,
// watch) evaluates it over the recorder's store:
//
//   - node-down: a node failed two consecutive scrapes (unreachable,
//     or its /metrics does not parse under the 0.0.4 grammar).
//   - not-ready: a reachable node's /readyz answered other than 200
//     on two consecutive scrapes — alive but not serving.
//   - readiness-flap: a node's /readyz answer changed 3+ times in
//     20s — the probe is oscillating, not settling.
//   - silent-relay: a reachable node saw no inbound frames for 5s
//     while the cluster as a whole moved traffic.
//   - segment-loss-slo: the session-level loss ratio
//     (1 - acked/sent) burned past 50% over 10s for two consecutive
//     evaluations.
//   - repair-spike: paths died at more than one death per four
//     segments sent over 10s — the paper's repair machinery is
//     thrashing rather than absorbing failures.
//   - repair-storm: path rebuilds completed at more than one per
//     second over 10s — repair is cycling through relays instead of
//     converging, the live counterpart of repair-spike (deaths
//     measure the damage, rebuilds measure the churn).
//   - node-degraded: a node reported sessions below full path width
//     (live.degraded > 0) for two consecutive scrapes — repair has
//     not restored the width and the node is shedding cover traffic.
//
// Three resource rules watch the runtime telemetry every node samples
// into its registry (internal/obs.RuntimeCollector):
//
//   - goroutine-leak: a node's goroutine count grew 50%+ AND by 500+
//     goroutines over 10s, twice in a row. The absolute floor keeps
//     an idle node (a handful of goroutines) from paging on noise.
//   - heap-growth: heap in-use grew 50%+ AND by 64MB+ over 10s,
//     twice in a row — unbounded buffering, not GC jitter.
//   - gc-pause-spike: a node's most recent GC pause exceeded 100ms —
//     long enough to fail scrapes and stall the data plane.
func Defaults() []Rule {
	return []Rule{
		{
			Name: "node-down", Kind: Threshold, Metric: "up", PerNode: true,
			Op: OpLT, Value: 1, For: 2,
		},
		{
			Name: "not-ready", Kind: Threshold, Metric: "ready", PerNode: true,
			Op: OpLT, Value: 1, For: 2,
		},
		{
			Name: "readiness-flap", Kind: Flap, Metric: "ready", PerNode: true,
			Op: OpGT, Value: 2, Window: micros(flapWindow),
		},
		{
			Name: "silent-relay", Kind: Absence, Metric: "live_frames_in_*", PerNode: true,
			RefMetric: "live_frames_out", MinRef: 1, Window: micros(silentWindow),
		},
		{
			Name: "segment-loss-slo", Kind: BurnRate,
			Num: "session_segments_acked", Den: "session_segments_sent", Complement: true,
			Op: OpGT, Value: 0.5, Window: micros(DefaultWindow), For: 2,
		},
		{
			Name: "repair-spike", Kind: BurnRate,
			Num: "session_paths_dead", Den: "session_segments_sent",
			Op: OpGT, Value: 0.25, Window: micros(DefaultWindow),
		},
		{
			Name: "repair-storm", Kind: Rate, Metric: "live_repair_repaired",
			Op: OpGT, Value: 1, Window: micros(DefaultWindow),
		},
		{
			Name: "node-degraded", Kind: Threshold, Metric: "live_degraded", PerNode: true,
			Op: OpGT, Value: 0, For: 2,
		},
		{
			Name: "goroutine-leak", Kind: Trend, Metric: "runtime_goroutines", PerNode: true,
			Op: OpGT, Value: 0.5, MinDelta: 500, Window: micros(DefaultWindow), For: 2,
		},
		{
			Name: "heap-growth", Kind: Trend, Metric: "runtime_heap_inuse_bytes", PerNode: true,
			Op: OpGT, Value: 0.5, MinDelta: 64 << 20, Window: micros(DefaultWindow), For: 2,
		},
		{
			Name: "gc-pause-spike", Kind: Threshold, Metric: "runtime_last_gc_pause_seconds", PerNode: true,
			Op: OpGT, Value: 0.1,
		},
	}
}
