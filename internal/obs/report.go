package obs

import (
	"encoding/json"
	"io"
	"os"
)

// Report is the machine-readable outcome of one simulated run: what was
// configured, what happened and why messages were lost. cmd/anonsim
// writes one with -report; `anontrace report -reconcile` cross-checks a
// trace against its registry snapshot.
//
// Every field is a function of the seed and the configuration — no wall
// clock, no file paths — so equal-seed runs write byte-identical
// reports (cmd/anonsim's TestReportDeterministic).
type Report struct {
	// Name identifies the run kind ("anonsim", "anonsim-sharded").
	Name string `json:"name"`
	// Seed is the run's base random seed.
	Seed int64 `json:"seed"`
	// Config echoes the run configuration, flag-by-flag.
	Config map[string]string `json:"config,omitempty"`
	// VirtualSeconds is the simulated time covered.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// EventsExecuted is the number of engine events run.
	EventsExecuted uint64 `json:"events_executed,omitempty"`
	// Outcome holds run-level aggregates (durability, deliveries,
	// latency, ...), keyed by metric name.
	Outcome map[string]float64 `json:"outcome,omitempty"`
	// Drops is the failure breakdown: messages lost, keyed by reason
	// name. It reconciles exactly with the trace's msg_dropped events
	// because both are produced at the same emit sites.
	Drops map[string]uint64 `json:"drops,omitempty"`
	// Metrics is the full registry snapshot.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to a file.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}
