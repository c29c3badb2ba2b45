package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Safe for concurrent
// use; increments are a single atomic add, cheap enough for per-message
// hot paths.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates samples into fixed buckets. A sample x lands
// in the first bucket whose upper bound satisfies x <= le; samples
// beyond the last bound count as overflow. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds
	counts []uint64  // len(bounds)+1; last is overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// newHistogram validates bounds and builds the histogram.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	// First index with bounds[i] >= x, i.e. the x <= le bucket.
	i := sort.SearchFloat64s(h.bounds, x)
	h.mu.Lock()
	h.counts[i]++
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if h.count == 0 || x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// samples by linear interpolation inside the bucket the rank falls in
// (the Prometheus convention), using the exact Min/Max to bound the
// first and overflow buckets. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	return h.snapshot().Quantile(q)
}

// snapshot captures the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:    h.count,
		Sum:      h.sum,
		Min:      h.min,
		Max:      h.max,
		Buckets:  make([]Bucket, len(h.bounds)),
		Overflow: h.counts[len(h.bounds)],
	}
	for i, le := range h.bounds {
		s.Buckets[i] = Bucket{LE: le, Count: h.counts[i]}
	}
	return s
}

// Bucket is one histogram bucket in a snapshot: the count of samples x
// with previous-bound < x <= LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	Sum      float64  `json:"sum"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	Buckets  []Bucket `json:"buckets"`
	Overflow uint64   `json:"overflow"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket the rank falls in. The first bucket
// interpolates from Min and the overflow bucket toward Max, so the
// estimate is always within the observed range. Empty snapshots
// return 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	lower := s.Min
	for _, b := range s.Buckets {
		upper := b.LE
		if next := cum + float64(b.Count); next >= rank {
			v := lower
			if b.Count > 0 {
				v += (rank - cum) / float64(b.Count) * (upper - lower)
			}
			return clampQuantile(v, s.Min, s.Max)
		} else {
			cum = next
		}
		if upper > lower {
			lower = upper
		}
	}
	// Rank falls in the overflow bucket: interpolate toward Max.
	v := lower
	if s.Overflow > 0 && s.Max > lower {
		v += (rank - cum) / float64(s.Overflow) * (s.Max - lower)
	}
	return clampQuantile(v, s.Min, s.Max)
}

// clampQuantile bounds an interpolated quantile to the observed range.
func clampQuantile(v, min, max float64) float64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON.
// encoding/json writes map keys sorted, so marshaling a snapshot of an
// unchanged registry is byte-stable.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry is a named collection of counters, gauges and histograms —
// the metrics substrate every run reports from. Instruments are
// get-or-create by name: subsystems resolve their instruments once at
// bind time and then update them lock-free. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls keep the original
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// CountersWithPrefix returns the counters whose name starts with
// prefix, keyed by the remainder of the name. Reports use it to pull
// e.g. the "net.dropped." family into a drop-reason breakdown.
func (r *Registry) CountersWithPrefix(prefix string) map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64)
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			out[strings.TrimPrefix(name, prefix)] = c.Value()
		}
	}
	return out
}
