package obs

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// TestRuntimeCollectorGauges pins DESIGN.md §7's inventory of runtime
// telemetry: the collector publishes the three gauges a rule or a
// dashboard column reads, with live values, and no other runtime.*
// series reaches the exposition.
func TestRuntimeCollectorGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)

	// Force at least one GC cycle and resample past the throttle.
	runtime.GC()
	c.mu.Lock()
	c.collect()
	c.mu.Unlock()

	// The gauges must be visible through the plain registry snapshot —
	// that is the whole point (recorder/tsdb/rules see them for free).
	snap := reg.Snapshot()
	for _, name := range []string{"runtime.goroutines", "runtime.heap_inuse_bytes", "runtime.last_gc_pause_seconds"} {
		if v, ok := snap.Gauges[name]; !ok || v <= 0 {
			t.Errorf("gauge %s = %v (present %v) after a GC cycle, want > 0", name, v, ok)
		}
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"runtime_goroutines", "runtime_heap_inuse_bytes", "runtime_last_gc_pause_seconds"}
	if got := sortedKeys(fams); !slices.Equal(got, want) {
		t.Fatalf("exposition holds %v, want exactly %v", got, want)
	}
}

func TestRuntimeCollectorThrottle(t *testing.T) {
	c := NewRuntimeCollector(NewRegistry())
	// The constructor just sampled; an immediate Collect must be a
	// no-op, leaving a planted sentinel untouched.
	c.goroutines.Set(-1)
	c.Collect()
	if v := c.goroutines.Value(); v != -1 {
		t.Fatalf("throttled Collect resampled (goroutines = %v)", v)
	}
}
