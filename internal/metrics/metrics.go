// Package metrics is the bandwidth half of the paper's evaluation
// framework (§6.1): per-flow accounting of every byte placed on every
// link a message traverses. Experiment harnesses aggregate flows into
// the bandwidth rows of the paper's tables and figures.
package metrics

// Flow accumulates the bandwidth cost of one logical operation — a
// message delivery attempt or a path-construction attempt. Relays add
// the size of every message they place on a link, so a message that dies
// at hop 2 still paid for links 1 and 2, which is what reconciles the
// paper's Table 2 with its Figure 4. A nil *Flow is valid and discards.
type Flow struct {
	Bytes    int
	Messages int
}

// Add charges size bytes (one message) to the flow.
func (f *Flow) Add(size int) {
	if f == nil {
		return
	}
	f.Bytes += size
	f.Messages++
}

// KB returns the flow's size in kilobytes (1024 bytes).
func (f Flow) KB() float64 { return float64(f.Bytes) / 1024 }
