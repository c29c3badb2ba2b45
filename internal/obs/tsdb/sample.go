package tsdb

import (
	"sort"

	"resilientmix/internal/obs"
)

// SampleSnapshot appends every scalar instrument of a registry
// snapshot as one sample per series at time `at`: counters and gauges
// under their sanitized Prometheus names, histograms as name_sum and
// name_count (buckets are skipped). The same naming the cluster
// recorder derives from /metrics, so an in-process registry sits in a
// recorded store beside the polled nodes.
func SampleSnapshot(db *DB, at int64, labels Labels, snap obs.Snapshot) {
	emit := func(name string, v float64) {
		db.AppendKey(Key(obs.SanitizePromName(name), labels), at, v)
	}
	for _, name := range sortedKeys(snap.Counters) {
		emit(name, float64(snap.Counters[name]))
	}
	for _, name := range sortedKeys(snap.Gauges) {
		emit(name, snap.Gauges[name])
	}
	hists := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := snap.Histograms[name]
		emit(name+"_sum", h.Sum)
		emit(name+"_count", float64(h.Count))
	}
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
