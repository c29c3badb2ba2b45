package obs

import "sync"

// Collector is an unbounded in-memory tracer: it keeps every emitted
// event in arrival order. It is the input stage for offline analysis
// (internal/obs/analyze) when a run wants an analysis summary without
// writing a trace file first. Memory grows with the trace. Safe for
// concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends the event.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Len returns the number of events collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Events returns a copy of the collected events in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Reset discards all collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}
