package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"resilientmix/internal/obs/tsdb"
)

// The dashboard's sparkline width in cells, and the window its rate
// columns cover in the store's microseconds.
const (
	watchWidth  = 24
	watchWindow = int64(10 * time.Second / time.Microsecond)
)

// sparkLevels are the eighth-block ramp cells of a sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders values (oldest first) as a fixed-width sparkline,
// scaled to the window maximum; missing leading cells pad with
// spaces. NaN and negative values render as the lowest cell.
func spark(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max float64
	for _, v := range vals {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	out := make([]rune, 0, width)
	for i := len(vals); i < width; i++ {
		out = append(out, ' ')
	}
	for _, v := range vals {
		idx := 0
		if max > 0 && !math.IsNaN(v) && v > 0 {
			idx = int(v / max * float64(len(sparkLevels)-1))
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
		}
		out = append(out, sparkLevels[idx])
	}
	return string(out)
}

// watchNodes lists the node label values present in the store, sorted
// numerically (lexically for non-numeric labels).
func watchNodes(db *tsdb.DB) []string {
	var nodes []string
	for _, s := range db.ByName("up") {
		if n := s.Labels.Get("node"); n != "" {
			nodes = append(nodes, n)
		}
	}
	sortIDs(nodes)
	return nodes
}

// sortIDs orders node ids numerically (lexically for non-numeric ones).
func sortIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool {
		a, errA := strconv.Atoi(ids[i])
		b, errB := strconv.Atoi(ids[j])
		if errA == nil && errB == nil {
			return a < b
		}
		return ids[i] < ids[j]
	})
}

// nodeRate sums the windowed per-second rates of every series of one
// node matching the pattern.
func nodeRate(db *tsdb.DB, pattern, node string, win int64) float64 {
	var sum float64
	for _, s := range db.Match(pattern) {
		if s.Labels.Get("node") != node {
			continue
		}
		if v, ok := s.RatePerSec(win); ok {
			sum += v
		}
	}
	return sum
}

// nodeLatest sums the latest values of every series of one node
// matching the pattern.
func nodeLatest(db *tsdb.DB, pattern, node string) float64 {
	var sum float64
	for _, s := range db.Match(pattern) {
		if s.Labels.Get("node") != node {
			continue
		}
		if p, ok := s.Latest(); ok {
			sum += p.V
		}
	}
	return sum
}

// clusterTailRates sums per-tick rates across every series matching
// the pattern, aligned by sample timestamp, and returns the most
// recent n sums, oldest first — the cluster rollup sparkline feed.
func clusterTailRates(db *tsdb.DB, pattern string, n int) []float64 {
	sums := make(map[int64]float64)
	for _, s := range db.Match(pattern) {
		pts := s.Points()
		for i := 1; i < len(pts); i++ {
			d := pts[i].V - pts[i-1].V
			if d < 0 {
				d = pts[i].V
			}
			span := float64(pts[i].At-pts[i-1].At) / 1e6
			if span <= 0 {
				continue
			}
			sums[pts[i].At] += d / span
		}
	}
	ats := make([]int64, 0, len(sums))
	for at := range sums {
		ats = append(ats, at)
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	if len(ats) > n {
		ats = ats[len(ats)-n:]
	}
	out := make([]float64, len(ats))
	for i, at := range ats {
		out[i] = sums[at]
	}
	return out
}

// clusterRate sums windowed rates across every series matching the
// pattern.
func clusterRate(db *tsdb.DB, pattern string, win int64) float64 {
	var sum float64
	for _, s := range db.Match(pattern) {
		if v, ok := s.RatePerSec(win); ok {
			sum += v
		}
	}
	return sum
}

// clusterLatest sums latest values across every series matching the
// pattern.
func clusterLatest(db *tsdb.DB, pattern string) float64 {
	var sum float64
	for _, s := range db.Match(pattern) {
		if p, ok := s.Latest(); ok {
			sum += p.V
		}
	}
	return sum
}

// RenderWatch renders the telemetry dashboard — per-node rows with
// sparklines, cluster rollups, and the alert log — purely from the
// store's retained state: a live store and its reloaded recording
// render byte-identically, which is the `anonctl record`/`replay`
// golden contract. Times render relative to the first retained
// sample, so the output carries no wall-clock dependence beyond the
// recording itself.
func RenderWatch(w io.Writer, db *tsdb.DB) {
	first, last, ok := db.Bounds()
	if !ok {
		fmt.Fprintln(w, "telemetry: no samples")
		return
	}
	nodes := watchNodes(db)

	ticks := 0
	for _, s := range db.ByName("up") {
		if n := s.Len(); n > ticks {
			ticks = n
		}
	}
	fmt.Fprintf(w, "telemetry — %d nodes · %d ticks retained · span %.1fs · window %.0fs\n\n",
		len(nodes), ticks, float64(last-first)/1e6, float64(watchWindow)/1e6)

	fmt.Fprintf(w, "%-5s %-4s %-5s %9s  %-*s %8s %8s %8s %6s %6s %6s %7s\n",
		"node", "up", "ready", "out/s", watchWidth, "history", "in/s", "sent/s", "acked/s", "fwd", "rev", "gor", "heap")
	for _, n := range nodes {
		label := tsdb.L("node", n)
		upDown := "-"
		if v, ok := latest(db, "up", label); ok {
			upDown = "ok"
			if v < 1 {
				upDown = "DOWN"
			}
		}
		ready := "-"
		if v, ok := latest(db, "ready", label); ok {
			ready = "ok"
			if v < 1 {
				ready = "FAIL"
			}
		}
		var hist []float64
		if s := db.Get("live_frames_out", label); s != nil {
			hist = s.TailRates(watchWidth)
		}
		fmt.Fprintf(w, "%-5s %-4s %-5s %9.1f  %-*s %8.1f %8.1f %8.1f %6.0f %6.0f %6.0f %7s\n",
			n, upDown, ready,
			nodeRate(db, "live_frames_out", n, watchWindow),
			watchWidth, spark(hist, watchWidth),
			nodeRate(db, "live_frames_in_*", n, watchWindow),
			nodeRate(db, "session_segments_sent", n, watchWindow),
			nodeRate(db, "session_segments_acked", n, watchWindow),
			nodeLatest(db, "live_forward_states", n),
			nodeLatest(db, "live_reverse_states", n),
			nodeLatest(db, "runtime_goroutines", n),
			fmtBytes(nodeLatest(db, "runtime_heap_inuse_bytes", n)))
	}

	// Cumulative counters per node: what a single tick (anonctl status)
	// can already show, and where a session's segments went.
	fmt.Fprintf(w, "\n%-5s %10s %9s %9s %9s\n", "node", "frames_out", "sent", "acked", "delivered")
	for _, n := range nodes {
		fmt.Fprintf(w, "%-5s %10.0f %9.0f %9.0f %9.0f\n", n,
			nodeLatest(db, "live_frames_out", n),
			nodeLatest(db, "session_segments_sent", n),
			nodeLatest(db, "session_segments_acked", n),
			nodeLatest(db, "recv_delivered", n))
	}

	fmt.Fprintf(w, "\ncluster  out/s %.1f  %s\n",
		clusterRate(db, "live_frames_out", watchWindow),
		spark(clusterTailRates(db, "live_frames_out", watchWidth), watchWidth))
	sent := clusterRate(db, "session_segments_sent", watchWindow)
	acked := clusterRate(db, "session_segments_acked", watchWindow)
	loss := 0.0
	if sent > 0 {
		loss = 1 - acked/sent
		if loss < 0 {
			loss = 0
		}
	}
	fmt.Fprintf(w, "         sent/s %.1f  acked/s %.1f  loss %.1f%%  delivered %.0f  paths_built %.0f  paths_dead %.0f\n",
		sent, acked, loss*100,
		clusterLatest(db, "recv_delivered"),
		clusterLatest(db, "live_paths_built"),
		clusterLatest(db, "session_paths_dead"))
	// repair_failed counts failed construction attempts, one per Build
	// (a failed one is asked for again at the next probe tick).
	fmt.Fprintf(w, "         repaired %.0f  repair_failed %.0f  retransmits %.0f  degraded %.0f  cover_shed %.0f\n",
		clusterLatest(db, "live_repair_repaired"),
		clusterLatest(db, "live_repair_failed"),
		clusterLatest(db, "session_retransmits"),
		clusterLatest(db, "live_degraded"),
		clusterLatest(db, "live_cover_shed"))

	renderEgress(w, db)

	anns := db.Annotations()
	if len(anns) == 0 {
		fmt.Fprintln(w, "alerts: none")
		return
	}
	fmt.Fprintf(w, "alerts (%d):\n", len(anns))
	for _, a := range anns {
		where := "cluster"
		if a.Series != "" {
			where = a.Series
			if _, labels, err := tsdb.ParseKey(a.Series); err == nil {
				if n := labels.Get("node"); n != "" {
					where = "node " + n
				}
			}
		}
		fmt.Fprintf(w, "  +%.1fs  [%s] %s: %s\n", float64(a.At-first)/1e6, where, a.Kind, a.Detail)
	}
}

// renderEgress prints the frames the fleet sent to each peer, summed
// over senders — the silent-relay early warning: a relay nobody sends
// to is missing from the line.
func renderEgress(w io.Writer, db *tsdb.DB) {
	const pfx = "live_peer_out_"
	egress := make(map[string]float64)
	for _, s := range db.Match(pfx + "*") {
		if p, ok := s.Latest(); ok {
			egress[s.Name[len(pfx):]] += p.V
		}
	}
	if len(egress) == 0 {
		return
	}
	peers := make([]string, 0, len(egress))
	for k := range egress {
		peers = append(peers, k)
	}
	sortIDs(peers)
	fmt.Fprint(w, "         egress by peer:")
	for _, k := range peers {
		fmt.Fprintf(w, " %s:%.0f", k, egress[k])
	}
	fmt.Fprintln(w)
}

// fmtBytes renders a byte quantity compactly for a dashboard cell.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fG", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.0fM", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fK", v/(1<<10))
	case v > 0:
		return fmt.Sprintf("%.0fB", v)
	}
	return "-"
}

// latest reads one series' latest value.
func latest(db *tsdb.DB, name string, labels tsdb.Labels) (float64, bool) {
	s := db.Get(name, labels)
	if s == nil {
		return 0, false
	}
	p, ok := s.Latest()
	return p.V, ok
}
