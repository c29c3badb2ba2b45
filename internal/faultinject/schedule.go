// Package faultinject is the repo's deterministic fault-injection
// layer: one schedule format, replayed against either a simulated
// world (internal/sim + internal/netsim) or a live
// anonnode fleet (internal/cluster). A schedule is JSONL — one event
// per line, sorted by time — so schedules diff cleanly, commit to CI,
// and pipe through standard tools.
//
// The same schedule means the same thing on every backend:
//
//	kind       target  peer   value          effect
//	crash      node    -      -              node down (SIGKILL live); dur ⇒ restart after
//	restart    node    -      -              node up (respawn live)
//	partition  node    node   -              link blocked both ways; dur ⇒ heal after
//	heal       node    node   -              unblock both ways
//	latency    node    node*  added ms       one-way delay increase, both directions; dur ⇒ remove
//	slow       node    node*  multiplier ≥1  one-way latency × value, both directions; dur ⇒ remove
//	drop       node    -      probability    inbound traffic to target dropped; dur ⇒ remove
//
// (*) peer −1 applies the fault to every link touching the target.
//
// Determinism: on the sim backends every event fires at an exact
// virtual time and all randomness flows from the engine's seeded RNG,
// so the same seed + schedule reproduces byte-identical fault traces
// (pinned by SHA-256 in the tests). The live backend replays the same
// events on the wall clock; real networks are not reproducible, but
// the applied-fault log still records exactly what was done when.
package faultinject

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// Kind names a fault. The string forms are the schedule wire format.
type Kind string

// The fault vocabulary.
const (
	Crash     Kind = "crash"
	Restart   Kind = "restart"
	Partition Kind = "partition"
	Heal      Kind = "heal"
	Latency   Kind = "latency"
	Slow      Kind = "slow"
	Drop      Kind = "drop"
)

// Event is one scheduled fault.
type Event struct {
	// AtMS is when the fault applies, in milliseconds from schedule
	// start (virtual time on sim backends, wall clock live).
	AtMS int64 `json:"at_ms"`
	// Kind selects the fault.
	Kind Kind `json:"kind"`
	// Target is the faulted node.
	Target int `json:"target"`
	// Peer is the far end for link faults; -1 means every peer.
	Peer int `json:"peer"`
	// DurMS, when positive, auto-reverts the fault after this long
	// (restart after crash, heal after partition, remove degradation).
	DurMS int64 `json:"dur_ms,omitempty"`
	// Value parameterizes latency (added ms), slow (multiplier ≥ 1)
	// and drop (probability in [0,1]).
	Value float64 `json:"value,omitempty"`
}

// revert returns the event that undoes e at the end of its duration,
// or false when e does not auto-revert.
func (e Event) revert() (Event, bool) {
	if e.DurMS <= 0 {
		return Event{}, false
	}
	at := e.AtMS + e.DurMS
	switch e.Kind {
	case Crash:
		return Event{AtMS: at, Kind: Restart, Target: e.Target, Peer: -1}, true
	case Partition:
		return Event{AtMS: at, Kind: Heal, Target: e.Target, Peer: e.Peer}, true
	case Latency:
		return Event{AtMS: at, Kind: Latency, Target: e.Target, Peer: e.Peer, Value: 0}, true
	case Slow:
		return Event{AtMS: at, Kind: Slow, Target: e.Target, Peer: e.Peer, Value: 1}, true
	case Drop:
		return Event{AtMS: at, Kind: Drop, Target: e.Target, Peer: -1, Value: 0}, true
	}
	return Event{}, false
}

// linkFault reports whether the kind addresses a (target, peer) link.
func (k Kind) linkFault() bool {
	switch k {
	case Partition, Heal, Latency, Slow:
		return true
	}
	return false
}

// maxMS is the last instant a backend clock can hold: the live applier
// converts schedule milliseconds to a time.Duration (the simulator's
// microsecond clock reaches further).
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// Validate checks one event against a world of n nodes (n <= 0 skips
// the range checks).
func (e Event) Validate(n int) error {
	if e.AtMS < 0 {
		return fmt.Errorf("faultinject: negative at_ms %d", e.AtMS)
	}
	if e.DurMS < 0 {
		return fmt.Errorf("faultinject: negative dur_ms %d", e.DurMS)
	}
	if e.AtMS > maxMS || e.DurMS > maxMS-e.AtMS {
		return fmt.Errorf("faultinject: at_ms %d + dur_ms %d is past what a clock can hold", e.AtMS, e.DurMS)
	}
	switch e.Kind {
	case Crash, Restart:
	case Partition, Heal:
		if e.Peer < 0 {
			return fmt.Errorf("faultinject: %s needs an explicit peer", e.Kind)
		}
		if e.Peer == e.Target {
			return fmt.Errorf("faultinject: %s of node %d with itself", e.Kind, e.Target)
		}
	case Latency:
		if e.Value < 0 {
			return fmt.Errorf("faultinject: latency value %g ms < 0", e.Value)
		}
	case Slow:
		if e.Value != 0 && e.Value < 1 {
			return fmt.Errorf("faultinject: slow multiplier %g < 1", e.Value)
		}
	case Drop:
		if e.Value < 0 || e.Value > 1 {
			return fmt.Errorf("faultinject: drop probability %g outside [0,1]", e.Value)
		}
	default:
		return fmt.Errorf("faultinject: unknown kind %q", e.Kind)
	}
	if e.Kind.linkFault() && e.Peer == e.Target {
		return fmt.Errorf("faultinject: %s of node %d with itself", e.Kind, e.Target)
	}
	if n > 0 {
		if e.Target < 0 || e.Target >= n {
			return fmt.Errorf("faultinject: target %d outside [0,%d)", e.Target, n)
		}
		if e.Kind.linkFault() && e.Peer >= n {
			return fmt.Errorf("faultinject: peer %d outside [0,%d)", e.Peer, n)
		}
	}
	return nil
}

// Schedule is a validated, time-sorted fault sequence.
type Schedule []Event

// Validate checks every event and that times are sorted.
func (s Schedule) Validate(n int) error {
	for i, e := range s {
		if err := e.Validate(n); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if i > 0 && e.AtMS < s[i-1].AtMS {
			return fmt.Errorf("faultinject: event %d at %dms before predecessor at %dms", i, e.AtMS, s[i-1].AtMS)
		}
	}
	return nil
}

// Expanded returns the schedule with every auto-revert made explicit,
// re-sorted by time (stable, so same-instant events keep schedule
// order and reverts follow their cause). Backends replay the expanded
// form so apply and revert share one code path.
func (s Schedule) Expanded() Schedule {
	out := make(Schedule, 0, len(s)*2)
	for _, e := range s {
		rev, ok := e.revert()
		e.DurMS = 0
		out = append(out, e)
		if ok {
			out = append(out, rev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtMS < out[j].AtMS })
	return out
}

// End returns the time of the last effect (including auto-reverts).
func (s Schedule) End() int64 {
	var end int64
	for _, e := range s {
		at := e.AtMS + e.DurMS
		if at > end {
			end = at
		}
	}
	return end
}

// ParseSchedule reads a JSONL schedule. Blank lines and #-comment
// lines are skipped. The result is validated against n nodes and must
// be time-sorted.
func ParseSchedule(r io.Reader, n int) (Schedule, error) {
	var s Schedule
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Peer defaults to -1 ("all peers"), which a plain int field
		// cannot express since 0 is a valid node.
		e := Event{Peer: -1}
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("faultinject: line %d: %w", line, err)
		}
		s = append(s, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSchedule reads a schedule file.
func LoadSchedule(path string, n int) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSchedule(f, n)
}

// WriteSchedule writes the schedule as JSONL.
func WriteSchedule(w io.Writer, s Schedule) error {
	enc := json.NewEncoder(w)
	for _, e := range s {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// GenSpec parameterizes a random schedule.
type GenSpec struct {
	// Nodes is the world size; faults never target node 0 (the
	// initiator/driver) unless AllowZero is set.
	Nodes     int
	AllowZero bool
	// Events is how many faults to draw.
	Events int
	// SpanMS is the window faults are drawn from.
	SpanMS int64
	// MaxDurMS caps each fault's duration (minimum 1ms when set).
	MaxDurMS int64
	// Kinds restricts the vocabulary; empty means all kinds that make
	// sense standalone (crash, partition, latency, slow, drop).
	Kinds []Kind
}

// Generate draws a deterministic random schedule from the seed: same
// seed + spec ⇒ identical schedule.
func Generate(seed int64, spec GenSpec) (Schedule, error) {
	if spec.Nodes < 2 {
		return nil, fmt.Errorf("faultinject: need >= 2 nodes, have %d", spec.Nodes)
	}
	kinds := spec.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{Crash, Partition, Latency, Slow, Drop}
	}
	if spec.SpanMS <= 0 {
		spec.SpanMS = 30_000
	}
	if spec.MaxDurMS <= 0 {
		spec.MaxDurMS = spec.SpanMS / 3
	}
	rng := rand.New(rand.NewSource(seed))
	lo := 0
	if !spec.AllowZero {
		lo = 1
	}
	pick := func() int { return lo + rng.Intn(spec.Nodes-lo) }
	var s Schedule
	for i := 0; i < spec.Events; i++ {
		e := Event{
			AtMS:   rng.Int63n(spec.SpanMS),
			Kind:   kinds[rng.Intn(len(kinds))],
			Target: pick(),
			Peer:   -1,
			DurMS:  1 + rng.Int63n(spec.MaxDurMS),
		}
		if e.Kind.linkFault() {
			for e.Peer == -1 || e.Peer == e.Target {
				e.Peer = pick()
			}
		}
		switch e.Kind {
		case Latency:
			e.Value = float64(1 + rng.Intn(500)) // up to +500ms
		case Slow:
			e.Value = 1 + rng.Float64()*9 // 1x..10x
		case Drop:
			e.Value = 0.1 + rng.Float64()*0.8
		}
		s = append(s, e)
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].AtMS < s[j].AtMS })
	if err := s.Validate(spec.Nodes); err != nil {
		return nil, err
	}
	return s, nil
}
