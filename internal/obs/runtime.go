package obs

import (
	"runtime"
	"sync"
	"time"
)

// RuntimeCollector samples Go runtime health into plain Registry
// gauges, so everything downstream of the registry (the /metrics
// exposition, the cluster recorder, the tsdb, the rule engine, the
// watch dashboard) sees process-resource telemetry with no extra
// plumbing. It publishes exactly the gauges something reads:
// runtime.goroutines (rule goroutine-leak, dashboard column gor),
// runtime.heap_inuse_bytes (rule heap-growth, column heap) and
// runtime.last_gc_pause_seconds (rule gc-pause-spike). Anything finer
// is a profile's job: /debug/pprof and `go tool pprof`.
//
// Collection is pull-driven and throttled: handlers call Collect on
// every scrape, and the collector refreshes at most once per
// runtimeMinGap, so probe storms do not turn into ReadMemStats storms.
type RuntimeCollector struct {
	goroutines *Gauge
	heapInuse  *Gauge
	lastPause  *Gauge

	mu     sync.Mutex
	lastAt time.Time
}

// runtimeMinGap is the collection throttle: back-to-back scrapes
// within the gap reuse the previous sample.
const runtimeMinGap = 100 * time.Millisecond

// NewRuntimeCollector registers the runtime.* gauges on reg and takes
// the first sample, so the series exist from the very first scrape.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		goroutines: reg.Gauge("runtime.goroutines"),
		heapInuse:  reg.Gauge("runtime.heap_inuse_bytes"),
		lastPause:  reg.Gauge("runtime.last_gc_pause_seconds"),
	}
	c.collect()
	c.lastAt = time.Now()
	return c
}

// Collect refreshes the gauges, throttled to once per runtimeMinGap.
// Safe for concurrent use; cheap when the throttle holds.
func (c *RuntimeCollector) Collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.lastAt) < runtimeMinGap {
		return
	}
	c.lastAt = time.Now()
	c.collect()
}

// collect takes one unthrottled sample. Callers hold c.mu (or are the
// constructor).
func (c *RuntimeCollector) collect() {
	c.goroutines.Set(float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapInuse.Set(float64(ms.HeapInuse))
	if ms.NumGC > 0 {
		// PauseNs is a ring; the most recent pause sits at (NumGC+255)%256.
		c.lastPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
}
