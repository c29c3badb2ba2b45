// Package analyze is the offline trace-analytics engine: it consumes
// the JSONL traces of internal/obs and reconstructs what the run
// actually did, per stream — the full causal timeline of every tagged
// application message (onion hops, erasure segments over the k paths,
// retries, and the terminal outcome), end-to-end latency attributed
// into link-propagation, relay-queueing and retry components, and what
// a passive wire observer learns: the anonymity observables of a
// global one (Summary.Anonymity) and the §4.6 timing-correlation attack
// of one tapping a fraction of the nodes (Result.Correlate). What the
// relays themselves learn is read from a sample of constructed paths
// (ReadPaths): §5's predecessor attack by a colluding compromised set,
// its share of relay slots (§7), and how relay duty spreads.
//
// The engine is streaming: feed events to an Analyzer in trace order
// (Emit — an Analyzer is an obs.Tracer, so a simulated world can feed
// it directly), then Finalize once. Nothing here touches the simulation
// — analysis is a pure function of the trace, so it can run long after
// the run, on another machine, over gzip-compressed traces
// (obs.OpenTraceReader), and its results are as deterministic as the
// trace itself.
//
// Trace integrity is a first-class output: a causal chain that cannot
// be joined — a delivery with no matching send, a hop-N send with no
// delivered hop N-1, a chain that ends at a relay with no drop record —
// is a bug in the emitting code, not in the run, and is surfaced as an
// integrity error. A healthy trace has zero.
package analyze

import (
	"fmt"
	"sort"

	"resilientmix/internal/obs"
)

// JourneyOutcome classifies how one segment's wire journey ended.
type JourneyOutcome int

// Journey outcomes.
const (
	// OutcomeInFlight: unresolved when the trace ended, within the
	// grace window (the message was still on the wire at truncation).
	OutcomeInFlight JourneyOutcome = iota
	// OutcomeArrived: delivered to the path endpoint (the responder).
	OutcomeArrived
	// OutcomeDropped: dropped on the wire with a msg_dropped reason.
	OutcomeDropped
	// OutcomeStalled: consumed above the wire by a relay or responder
	// that could not process it (relay_dropped).
	OutcomeStalled
)

// String names the outcome.
func (o JourneyOutcome) String() string {
	switch o {
	case OutcomeInFlight:
		return "in_flight"
	case OutcomeArrived:
		return "arrived"
	case OutcomeDropped:
		return "dropped"
	case OutcomeStalled:
		return "stalled"
	default:
		return fmt.Sprintf("JourneyOutcome(%d)", int(o))
	}
}

// Hop is one link traversal within an attempt: a send and its
// resolution.
type Hop struct {
	Hop         int
	From, To    int
	SentAt      int64
	DeliveredAt int64
	Delivered   bool
	Dropped     bool
	DropReason  obs.Reason
	Size        int
}

// Attempt is one contiguous hop chain of a journey, started by a hop-0
// send (or a standalone sender-down drop). A retry on the same
// (message, segment, slot) opens a new attempt.
type Attempt struct {
	Hops []Hop
	// RelayDropped is set when a relay or responder consumed the
	// message above the wire.
	RelayDropped    bool
	RelayDropNode   int
	RelayDropReason obs.Reason
	RelayDropAt     int64
}

// last returns the most recent hop, nil when empty.
func (a *Attempt) last() *Hop {
	if len(a.Hops) == 0 {
		return nil
	}
	return &a.Hops[len(a.Hops)-1]
}

// lastAt returns the attempt's most recent event time.
func (a *Attempt) lastAt() int64 {
	at := a.RelayDropAt
	if h := a.last(); h != nil {
		if h.SentAt > at {
			at = h.SentAt
		}
		if h.Delivered && h.DeliveredAt > at {
			at = h.DeliveredAt
		}
	}
	return at
}

// Journey is the wire life of one coded segment on one path slot.
type Journey struct {
	MID      uint64
	Seg      int
	Slot     int
	Attempts []*Attempt
	Outcome  JourneyOutcome
	// Reason is the drop reason for Dropped/Stalled outcomes.
	Reason obs.Reason
}

// current returns the journey's open attempt, nil when none.
func (j *Journey) current() *Attempt {
	if len(j.Attempts) == 0 {
		return nil
	}
	return j.Attempts[len(j.Attempts)-1]
}

// final returns the journey's last attempt, nil when none.
func (j *Journey) final() *Attempt { return j.current() }

// Stream is one tagged application message: its segments' journeys
// plus the endpoint events framing them.
type Stream struct {
	MID       uint64
	Initiator int
	Responder int
	// FirstSentAt is the first segment_sent time; -1 when the stream
	// was only observed on the wire (no endpoint event).
	FirstSentAt  int64
	SegmentsSent int
	// Reconstructed reports delivery: a segment_reconstructed event.
	Reconstructed   bool
	ReconstructedAt int64
	Receiver        int
	// InFlight reports an undelivered stream with at least one journey
	// unresolved at trace end.
	InFlight bool
	Journeys []*Journey
}

// jkey identifies a journey: one segment on one path slot of a message.
type jkey struct {
	mid  uint64
	seg  int32
	slot int32
}

// send is one wire send as a passive observer sees it: when, and from
// which node. The anonymity metrics read the tagged first-link sends
// (hop0), the timing correlator every send.
type send struct {
	at   int64
	node int
	hop0 bool
}

// maxIntegrityDetails caps how many integrity errors are described in
// full; the count is always exact.
const maxIntegrityDetails = 16

// Analyzer reconstructs streams from a trace fed in order. It is not
// safe for concurrent use: feed it from one goroutine.
type Analyzer struct {
	streams  map[uint64]*Stream
	journeys map[jkey]*Journey
	order    []jkey // insertion order, for deterministic output
	sends    []send // every msg_sent, tagged or not
	events   int
	seenAny  bool
	start    int64
	end      int64

	integrityN       int
	integrityDetails []string
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		streams:  make(map[uint64]*Stream),
		journeys: make(map[jkey]*Journey),
	}
}

// integrity records one causal-chain violation.
func (a *Analyzer) integrity(format string, args ...any) {
	a.integrityN++
	if len(a.integrityDetails) < maxIntegrityDetails {
		a.integrityDetails = append(a.integrityDetails, fmt.Sprintf(format, args...))
	}
}

// stream returns the stream record for a message id, creating it.
func (a *Analyzer) stream(mid uint64) *Stream {
	st, ok := a.streams[mid]
	if !ok {
		st = &Stream{MID: mid, Initiator: -1, Responder: -1, Receiver: -1, FirstSentAt: -1}
		a.streams[mid] = st
	}
	return st
}

// journey returns the journey for a key, creating it.
func (a *Analyzer) journey(k jkey) *Journey {
	j, ok := a.journeys[k]
	if !ok {
		j = &Journey{MID: k.mid, Seg: int(k.seg), Slot: int(k.slot)}
		a.journeys[k] = j
		a.order = append(a.order, k)
		st := a.stream(k.mid)
		st.Journeys = append(st.Journeys, j)
	}
	return j
}

// tagged reports whether a message event carries a data-plane tag.
func tagged(e obs.Event) bool { return e.ID != 0 && e.Slot >= 0 && e.Hop >= 0 }

// Emit feeds one event. Events must arrive in trace (time) order.
func (a *Analyzer) Emit(e obs.Event) {
	a.events++
	if !a.seenAny || e.At < a.start {
		a.start = e.At
	}
	if !a.seenAny || e.At > a.end {
		a.end = e.At
	}
	a.seenAny = true

	switch e.Type {
	case obs.SegmentSent:
		st := a.stream(e.ID)
		st.SegmentsSent++
		if st.FirstSentAt < 0 {
			st.FirstSentAt = e.At
		}
		st.Initiator = e.Node
		st.Responder = e.Peer
		// The endpoint event also anchors the journey record. Simulator
		// traces create it anyway via the tagged hop-0 wire send; live
		// traces carry untagged wire events, so without this their
		// journey count would be zero and never reconcile with the
		// session.segments_sent counter.
		if e.Slot >= 0 {
			a.journey(jkey{e.ID, int32(e.Seq), int32(e.Slot)})
		}
	case obs.SegmentReconstructed:
		st := a.stream(e.ID)
		if st.Reconstructed {
			a.integrity("message %d reconstructed twice (t=%d and t=%d)", e.ID, st.ReconstructedAt, e.At)
			return
		}
		st.Reconstructed = true
		st.ReconstructedAt = e.At
		st.Receiver = e.Node
	case obs.MsgSent:
		a.sends = append(a.sends, send{at: e.At, node: e.Node, hop0: tagged(e) && e.Hop == 0})
		if tagged(e) {
			a.addSent(e)
		}
	case obs.MsgDelivered:
		if tagged(e) {
			a.addDelivered(e)
		}
	case obs.MsgDropped:
		if tagged(e) {
			a.addDropped(e)
		}
	case obs.RelayDropped:
		if tagged(e) {
			a.addRelayDropped(e)
		}
	}
}

// addSent handles a tagged wire send.
func (a *Analyzer) addSent(e obs.Event) {
	j := a.journey(jkey{e.ID, int32(e.Seq), int32(e.Slot)})
	if e.Hop == 0 {
		j.Attempts = append(j.Attempts, &Attempt{})
	} else {
		att := j.current()
		if att == nil {
			a.integrity("msg %d seg %d slot %d: hop %d sent with no attempt open", e.ID, e.Seq, e.Slot, e.Hop)
			att = &Attempt{}
			j.Attempts = append(j.Attempts, att)
		} else if prev := att.last(); prev == nil || !prev.Delivered || prev.Hop != e.Hop-1 || prev.To != e.Node {
			a.integrity("msg %d seg %d slot %d: hop %d sent from node %d without a delivered hop %d there",
				e.ID, e.Seq, e.Slot, e.Hop, e.Node, e.Hop-1)
		}
	}
	att := j.current()
	att.Hops = append(att.Hops, Hop{
		Hop: e.Hop, From: e.Node, To: e.Peer, SentAt: e.At, Size: e.Size,
	})
}

// pendingHop returns the journey's open send matching a resolution
// event, nil if there is none.
func pendingHop(j *Journey, e obs.Event) *Hop {
	att := j.current()
	if att == nil {
		return nil
	}
	h := att.last()
	if h == nil || h.Delivered || h.Dropped || h.Hop != e.Hop {
		return nil
	}
	return h
}

// addDelivered handles a tagged wire delivery. Delivered events carry
// Node=receiver, Peer=sender — mirrored relative to the send.
func (a *Analyzer) addDelivered(e obs.Event) {
	j := a.journey(jkey{e.ID, int32(e.Seq), int32(e.Slot)})
	h := pendingHop(j, e)
	if h == nil || h.From != e.Peer || h.To != e.Node {
		a.integrity("msg %d seg %d slot %d: delivery at node %d hop %d matches no outstanding send",
			e.ID, e.Seq, e.Slot, e.Node, e.Hop)
		return
	}
	h.Delivered = true
	h.DeliveredAt = e.At
}

// addDropped handles a tagged wire drop.
func (a *Analyzer) addDropped(e obs.Event) {
	j := a.journey(jkey{e.ID, int32(e.Seq), int32(e.Slot)})
	if e.Reason == obs.ReasonSenderDown {
		// A sender-down suppression happens before anything enters the
		// wire: there is no msg_sent for it. It is its own attempt.
		j.Attempts = append(j.Attempts, &Attempt{Hops: []Hop{{
			Hop: e.Hop, From: e.Node, To: e.Peer, SentAt: e.At,
			Dropped: true, DropReason: e.Reason, Size: e.Size,
		}}})
		return
	}
	h := pendingHop(j, e)
	if h == nil || h.From != e.Node || h.To != e.Peer {
		a.integrity("msg %d seg %d slot %d: drop (%s) at hop %d matches no outstanding send",
			e.ID, e.Seq, e.Slot, e.Reason, e.Hop)
		return
	}
	h.Dropped = true
	h.DropReason = e.Reason
	h.DeliveredAt = e.At
}

// addRelayDropped handles an above-the-wire consumption.
func (a *Analyzer) addRelayDropped(e obs.Event) {
	j := a.journey(jkey{e.ID, int32(e.Seq), int32(e.Slot)})
	att := j.current()
	if att == nil {
		a.integrity("msg %d seg %d slot %d: relay drop at node %d with no attempt open",
			e.ID, e.Seq, e.Slot, e.Node)
		att = &Attempt{}
		j.Attempts = append(j.Attempts, att)
	} else if h := att.last(); h == nil || !h.Delivered || h.To != e.Node {
		a.integrity("msg %d seg %d slot %d: relay drop at node %d without a delivery there",
			e.ID, e.Seq, e.Slot, e.Node)
	}
	att.RelayDropped = true
	att.RelayDropNode = e.Node
	att.RelayDropReason = e.Reason
	att.RelayDropAt = e.At
}

// Summary is the digest of one trace analysis: stream accounting from
// causal reconstruction, trace-integrity findings, end-to-end latency
// attribution, and anonymity observables under a passive global
// observer.
type Summary struct {
	// EventsAnalyzed is the number of trace events consumed.
	EventsAnalyzed int `json:"events_analyzed"`
	// Messages is the number of distinct tagged application messages.
	Messages int `json:"messages"`
	// Delivered is the number of messages that reconstructed at the
	// receiver.
	Delivered int `json:"delivered"`
	// Failed is the number of messages whose every segment journey
	// terminated without reconstruction.
	Failed int `json:"failed"`
	// MessagesInFlight is the number of undelivered messages with at
	// least one journey still unresolved when the trace ended.
	MessagesInFlight int `json:"messages_in_flight"`
	// Journeys is the number of per-segment wire journeys traced.
	Journeys int `json:"journeys"`
	// JourneysDelivered / JourneysDropped / JourneysStalled /
	// JourneysInFlight classify journey outcomes: arrived at the path
	// endpoint, dropped on the wire (with a msg_dropped reason),
	// consumed by a relay (relay_dropped), or still unresolved at trace
	// end (within the in-flight grace window).
	JourneysDelivered int `json:"journeys_delivered"`
	JourneysDropped   int `json:"journeys_dropped"`
	JourneysStalled   int `json:"journeys_stalled"`
	JourneysInFlight  int `json:"journeys_in_flight"`
	// DropReasons counts dropped and stalled journeys by reason name.
	DropReasons map[string]uint64 `json:"drop_reasons,omitempty"`
	// IntegrityErrors counts causal-chain violations: orphaned
	// deliveries, contradictory hop sequences, unresolved sends outside
	// the grace window. Zero on a healthy trace.
	IntegrityErrors int `json:"integrity_errors"`
	// IntegrityDetails describes the first few integrity errors.
	IntegrityDetails []string `json:"integrity_details,omitempty"`
	// Latency is the end-to-end latency attribution over delivered
	// messages.
	Latency *LatencySummary `json:"latency,omitempty"`
	// Anonymity holds the passive-observer anonymity metrics.
	Anonymity *AnonymityMetrics `json:"anonymity,omitempty"`
}

// Result is the full analysis output: the summary plus the per-stream
// reconstruction it was computed from.
type Result struct {
	Summary Summary
	// Streams in first-send order.
	Streams []*Stream
	// Latencies holds the per-message attribution rows behind
	// Summary.Latency, in the same stream order.
	Latencies []StreamLatency
	// TraceStart/TraceEnd are the first and last event times.
	TraceStart, TraceEnd int64
	// Grace is the in-flight window: journeys unresolved within Grace
	// of TraceEnd are in flight, not integrity errors.
	Grace int64

	// sends is the observer's index, in time order.
	sends []send
}

// Finalize classifies every journey and computes the summary. The
// analyzer must not be fed further events afterwards.
func (a *Analyzer) Finalize() *Result {
	// The in-flight grace window is derived from the trace itself:
	// twice the slowest observed link, so a message sent within it of
	// trace end may legitimately still be on the wire.
	var maxLat int64
	for _, j := range a.journeys {
		for _, att := range j.Attempts {
			for i := range att.Hops {
				h := &att.Hops[i]
				if h.Delivered && h.DeliveredAt-h.SentAt > maxLat {
					maxLat = h.DeliveredAt - h.SentAt
				}
			}
		}
	}
	grace := 2 * maxLat

	sum := Summary{
		EventsAnalyzed: a.events,
		DropReasons:    make(map[string]uint64),
	}
	for _, k := range a.order {
		j := a.journeys[k]
		a.classify(j, grace)
		sum.Journeys++
		switch j.Outcome {
		case OutcomeArrived:
			sum.JourneysDelivered++
		case OutcomeDropped:
			sum.JourneysDropped++
			sum.DropReasons[j.Reason.String()]++
		case OutcomeStalled:
			sum.JourneysStalled++
			if j.Reason != obs.ReasonNone {
				sum.DropReasons[j.Reason.String()]++
			}
		case OutcomeInFlight:
			sum.JourneysInFlight++
		}
	}
	if len(sum.DropReasons) == 0 {
		sum.DropReasons = nil
	}

	streams := make([]*Stream, 0, len(a.streams))
	for _, st := range a.streams {
		streams = append(streams, st)
	}
	sort.Slice(streams, func(i, k int) bool {
		si, sk := streams[i], streams[k]
		if si.FirstSentAt != sk.FirstSentAt {
			return si.FirstSentAt < sk.FirstSentAt
		}
		return si.MID < sk.MID
	})
	for _, st := range streams {
		sum.Messages++
		switch {
		case st.Reconstructed:
			sum.Delivered++
		case streamInFlight(st):
			st.InFlight = true
			sum.MessagesInFlight++
		default:
			sum.Failed++
		}
	}

	sum.IntegrityErrors = a.integrityN
	sum.IntegrityDetails = a.integrityDetails

	// A live node stamps an event before it enters the stream, from
	// concurrent goroutines, so a /debug/trace capture can be out of
	// time order by microseconds; the observer's window searches need
	// the send index sorted.
	sort.Slice(a.sends, func(i, k int) bool {
		if a.sends[i].at != a.sends[k].at {
			return a.sends[i].at < a.sends[k].at
		}
		return a.sends[i].node < a.sends[k].node
	})
	res := &Result{
		Summary:    sum,
		Streams:    streams,
		TraceStart: a.start,
		TraceEnd:   a.end,
		Grace:      grace,
		sends:      a.sends,
	}
	res.Summary.Latency, res.Latencies = attributeLatency(streams)
	res.Summary.Anonymity = anonymityMetrics(streams, a.sends)
	return res
}

// classify assigns a journey's terminal outcome from its final attempt.
func (a *Analyzer) classify(j *Journey, grace int64) {
	att := j.final()
	if att == nil {
		j.Outcome = OutcomeInFlight
		return
	}
	h := att.last()
	switch {
	case h != nil && h.Dropped:
		j.Outcome = OutcomeDropped
		j.Reason = h.DropReason
	case att.RelayDropped:
		j.Outcome = OutcomeStalled
		j.Reason = att.RelayDropReason
	case h != nil && h.Delivered:
		st := a.streams[j.MID]
		if st != nil && st.Responder >= 0 && h.To == st.Responder {
			j.Outcome = OutcomeArrived
			return
		}
		if att.lastAt() >= a.end-grace {
			j.Outcome = OutcomeInFlight
			return
		}
		// The chain ends delivered at an intermediate node, long before
		// trace end, with no drop record: an emit site is missing.
		a.integrity("msg %d seg %d slot %d: chain ends delivered at node %d (hop %d) with no continuation",
			j.MID, j.Seg, j.Slot, h.To, h.Hop)
		j.Outcome = OutcomeStalled
	case h != nil:
		if h.SentAt >= a.end-grace {
			j.Outcome = OutcomeInFlight
			return
		}
		a.integrity("msg %d seg %d slot %d: send at t=%d (hop %d) never resolved",
			j.MID, j.Seg, j.Slot, h.SentAt, h.Hop)
		j.Outcome = OutcomeInFlight
	default:
		j.Outcome = OutcomeInFlight
	}
}

// streamInFlight reports whether any journey of an undelivered stream
// is still unresolved.
func streamInFlight(st *Stream) bool {
	for _, j := range st.Journeys {
		if j.Outcome == OutcomeInFlight {
			return true
		}
	}
	return false
}

// FromEvents analyzes an in-memory trace.
func FromEvents(events []obs.Event) *Result {
	a := New()
	for _, e := range events {
		a.Emit(e)
	}
	return a.Finalize()
}

// ReadFile analyzes a JSONL trace file, transparently decompressing
// gzip.
func ReadFile(path string) (*Result, error) {
	r, err := obs.OpenTraceReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	a := New()
	if err := obs.ForEachEvent(r, func(e obs.Event) error {
		a.Emit(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return a.Finalize(), nil
}

// Reconcile cross-checks the analysis against a run report's registry
// aggregates. Both views are produced at the same emit sites, so on a
// healthy pair they agree exactly: one journey per session.segments_sent
// increment, one delivered stream per recv.delivered increment. It
// returns a description per mismatch, empty when everything reconciles.
func Reconcile(res *Result, rep *obs.Report) []string {
	if rep.Metrics == nil {
		return []string{"report has no metrics snapshot to reconcile against"}
	}
	var out []string
	check := func(name string, got int) {
		want, ok := rep.Metrics.Counters[name]
		if !ok {
			out = append(out, fmt.Sprintf("report lacks counter %s (analysis: %d)", name, got))
			return
		}
		if uint64(got) != want {
			out = append(out, fmt.Sprintf("%s: analysis %d != report %d", name, got, want))
		}
	}
	check("session.segments_sent", res.Summary.Journeys)
	check("recv.delivered", res.Summary.Delivered)
	// A message that found no live slot sends zero segments and is
	// invisible on the wire, so the trace can only undercount.
	if want, ok := rep.Metrics.Counters["session.messages_sent"]; ok && uint64(res.Summary.Messages) > want {
		out = append(out, fmt.Sprintf("session.messages_sent: analysis %d > report %d",
			res.Summary.Messages, want))
	}
	return out
}
