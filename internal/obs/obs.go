// Package obs is the observability substrate of the repository: a
// structured trace layer, a metrics registry, and per-run report
// snapshots, shared by the simulator (internal/sim, internal/netsim,
// internal/core), the live transport (internal/livenet) and all three
// CLIs.
//
// Design constraints, in order:
//
//  1. The disabled path is free. Every instrumented subsystem holds a
//     Tracer interface value that defaults to nil and guards each emit
//     site with one nil-check. No allocation, no virtual call, no
//     formatting happens unless a tracer is installed.
//  2. Traces are deterministic. Events carry only virtual time and
//     protocol-derived fields, never wall-clock readings, so two runs
//     with the same seed produce byte-identical JSONL streams (the
//     determinism regression test hashes them).
//  3. Zero third-party dependencies: stdlib only, like the rest of the
//     module.
//
// The event taxonomy covers the per-hop life of a message and the
// lifecycle of the structures around it: engine scheduling
// (EventScheduled/EventFired), the message plane (MsgSent /
// MsgDelivered / MsgDropped with a typed drop reason, RelayDropped for
// messages consumed above the wire), churn (NodeUp/NodeDown), path
// lifecycle (PathBuilt / PathBroken / PathRepaired) and the
// erasure-coded data plane (SegmentSent / SegmentReconstructed).
//
// Data-plane messages additionally carry a Tag — message id, segment
// index, path-slot index and hop depth — threaded through the protocol
// layers, so offline tooling (internal/obs/analyze, cmd/anontrace) can
// join a stream's wire events into a causal per-hop timeline.
package obs

// Type enumerates trace event kinds.
type Type uint8

// The event taxonomy. Values are stable: they appear (as strings) in
// JSONL traces that tooling parses.
const (
	typeInvalid Type = iota
	// EventScheduled records a callback entering the engine queue: ID is
	// the engine sequence number, Seq the virtual time it will fire at.
	EventScheduled
	// EventFired records a scheduled callback starting to run; ID is the
	// engine sequence number from the matching EventScheduled.
	EventFired
	// MsgSent records a message placed on the wire: Node→Peer, Size
	// bytes.
	MsgSent
	// MsgDelivered records a message handed to the destination handler.
	MsgDelivered
	// MsgDropped records a message that will never be delivered; Reason
	// says why and at which end.
	MsgDropped
	// NodeUp records a churn transition to the up state.
	NodeUp
	// NodeDown records a churn transition to the down state.
	NodeDown
	// PathBuilt records a path construction ack arriving at the
	// initiator: Node is the initiator, Peer the responder, ID the
	// stream id, Seq the session's path-slot index.
	PathBuilt
	// PathBroken records the initiator declaring a path dead (Reason:
	// ack timeout) or condemned (Reason: predicted failure).
	PathBroken
	// PathRepaired records a replacement path standing in a previously
	// broken slot; ID is the new stream id.
	PathRepaired
	// SegmentSent records one erasure-coded segment entering a path:
	// ID is the message id, Seq the segment index.
	SegmentSent
	// SegmentReconstructed records a receiver reassembling a full
	// message from segments: ID is the message id, Seq the number of
	// distinct segments held at reconstruction time.
	SegmentReconstructed
	// RelayDropped records a message that arrived on the wire but was
	// consumed above it — a relay or responder could not process it
	// (Reason: no_state when the path state was expired or wiped,
	// bad_layer when decryption or parsing failed). Node is the node
	// that dropped it. Without this event such messages would appear
	// delivered in the trace and then silently vanish.
	RelayDropped
	// FaultInjected records a fault-injection schedule event being
	// applied to the world (internal/faultinject): Node is the target,
	// Peer the far end for link faults (-1 otherwise), Reason encodes
	// the fault kind where one applies.
	FaultInjected

	numTypes
)

var typeNames = [numTypes]string{
	typeInvalid:          "invalid",
	EventScheduled:       "event_scheduled",
	EventFired:           "event_fired",
	MsgSent:              "msg_sent",
	MsgDelivered:         "msg_delivered",
	MsgDropped:           "msg_dropped",
	NodeUp:               "node_up",
	NodeDown:             "node_down",
	PathBuilt:            "path_built",
	PathBroken:           "path_broken",
	PathRepaired:         "path_repaired",
	SegmentSent:          "segment_sent",
	SegmentReconstructed: "segment_reconstructed",
	RelayDropped:         "relay_dropped",
	FaultInjected:        "fault_injected",
}

// String returns the stable wire name of the type.
func (t Type) String() string {
	if t < numTypes {
		return typeNames[t]
	}
	return "invalid"
}

// Types returns every valid event type, in declaration order.
func Types() []Type {
	out := make([]Type, 0, numTypes-1)
	for t := EventScheduled; t < numTypes; t++ {
		out = append(out, t)
	}
	return out
}

// Reason classifies drops and path breaks.
type Reason uint8

// Drop and break reasons. Like Types, the string forms are stable wire
// and report vocabulary.
const (
	// ReasonNone marks events that carry no failure.
	ReasonNone Reason = iota
	// ReasonSenderDown: the sending node was down, nothing entered the
	// wire.
	ReasonSenderDown
	// ReasonReceiverDown: the destination was down when the message
	// arrived.
	ReasonReceiverDown
	// ReasonNoHandler: the destination was up but had no handler
	// installed (an unwired node).
	ReasonNoHandler
	// ReasonLinkLoss: random in-flight loss (netsim.SetLossRate).
	ReasonLinkLoss
	// ReasonAckTimeout: a path missed its end-to-end acknowledgment.
	ReasonAckTimeout
	// ReasonPredicted: the liveness predictor condemned a path before it
	// failed (§4.5 proactive replacement).
	ReasonPredicted
	// ReasonSendFailed: a live-network send failed (dial or write
	// error) — the TCP analogue of ReasonSenderDown.
	ReasonSendFailed
	// ReasonNoState: a relay received a message for an unknown or
	// expired stream (state lost to TTL expiry or a node failure, §4.3).
	ReasonNoState
	// ReasonBadLayer: an onion layer failed to decrypt or parse.
	ReasonBadLayer
	// ReasonPartitioned: an injected link partition swallowed the
	// message (internal/faultinject).
	ReasonPartitioned
	// ReasonInjectedDrop: an injected per-node drop rate consumed the
	// message (internal/faultinject).
	ReasonInjectedDrop
	// ReasonBlackholed: a live peer was administratively blackholed by
	// the fault controller — connections neither complete nor answer.
	ReasonBlackholed
	// ReasonProbeTimeout: a live path missed a liveness probe echo
	// (§4.5 probing over real sockets).
	ReasonProbeTimeout

	numReasons
)

var reasonNames = [numReasons]string{
	ReasonNone:         "none",
	ReasonSenderDown:   "sender_down",
	ReasonReceiverDown: "receiver_down",
	ReasonNoHandler:    "no_handler",
	ReasonLinkLoss:     "link_loss",
	ReasonAckTimeout:   "ack_timeout",
	ReasonPredicted:    "predicted",
	ReasonSendFailed:   "send_failed",
	ReasonNoState:      "no_state",
	ReasonBadLayer:     "bad_layer",
	ReasonPartitioned:  "partitioned",
	ReasonInjectedDrop: "injected_drop",
	ReasonBlackholed:   "blackholed",
	ReasonProbeTimeout: "probe_timeout",
}

// String returns the stable wire name of the reason.
func (r Reason) String() string {
	if r < numReasons {
		return reasonNames[r]
	}
	return "invalid"
}

// Reasons returns every reason, in declaration order.
func Reasons() []Reason {
	out := make([]Reason, 0, numReasons)
	for r := ReasonNone; r < numReasons; r++ {
		out = append(out, r)
	}
	return out
}

// Event is one trace record. It is a flat value struct so emitting one
// never allocates; fields not meaningful for a given Type are zero
// (Node/Peer use -1 for "no node" since 0 is a valid node id).
type Event struct {
	// Type is the event kind.
	Type Type
	// At is the virtual time in microseconds (wall-clock microseconds
	// for livenet, which has no virtual clock).
	At int64
	// Node is the primary node: sender, transitioning node, initiator,
	// or receiver, depending on Type. -1 when not applicable.
	Node int
	// Peer is the secondary node: receiver or responder. -1 when not
	// applicable.
	Peer int
	// ID correlates events: stream id, message id, or engine sequence.
	ID uint64
	// Seq is an ordinal: segment index, path-slot index, or (for
	// EventScheduled) the virtual time the callback will fire at.
	Seq int64
	// Slot is the path-slot index of the session path the event belongs
	// to, -1 when not applicable. On message events it comes from the
	// data-plane Tag; on path lifecycle and segment events it is set by
	// the session directly.
	Slot int
	// Hop is the link depth along a path for tagged message events:
	// 0 is the initiator's first link, L the terminal relay's delivery
	// link. -1 when not applicable (untagged or non-message events).
	Hop int
	// Size is the wire size in bytes for message events.
	Size int
	// Reason classifies MsgDropped, RelayDropped and PathBroken events.
	Reason Reason
}

// Tag is the data-plane trace metadata a message carries through the
// protocol layers: which application message it belongs to, which coded
// segment it is, which path slot it rides, and how deep along the path
// it currently is. The zero Tag (ID == 0) marks untagged traffic —
// construction, acks, membership and other background messages.
// Threading the tag costs nothing when tracing is disabled and draws no
// randomness, so it never perturbs a seeded run.
type Tag struct {
	// ID is the application message id (0 = untagged).
	ID uint64
	// Seg is the erasure segment index.
	Seg int32
	// Slot is the session path-slot index.
	Slot int32
	// Hop is the current link depth (0 = initiator's first link).
	Hop int32
}

// Next returns the tag advanced one hop — what a relay stamps on the
// message it forwards.
func (t Tag) Next() Tag {
	if t.ID == 0 {
		return t
	}
	t.Hop++
	return t
}

// Tracer receives trace events. Implementations used from concurrent
// code (livenet, parallel experiment harnesses) must be safe for
// concurrent Emit; Collector and JSONL both are.
type Tracer interface {
	Emit(Event)
}

// Noop is a tracer that discards every event. It exists to measure the
// cost of an installed-but-trivial tracer against the nil fast path.
type Noop struct{}

// Emit discards the event.
func (Noop) Emit(Event) {}

// multi fans one event out to several tracers.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Multi combines tracers into one; nils are skipped. It returns nil
// when nothing remains, and the tracer itself when only one does, so
// the caller keeps the single-nil-check fast path.
func Multi(ts ...Tracer) Tracer {
	var kept multi
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
