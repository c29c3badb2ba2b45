// Package session is the SimEra session (§4.5, §4.7) as a sans-IO
// state machine, with the application codec and the segment
// reassembler it shares with the responder side. It imports no
// engine, socket, wall clock or randomness and starts no goroutine:
// every input carries the driver's clock reading, every output is
// returned by value in caller-owned scratch, and message IDs and the
// relay choice come from the driver. internal/core drives it from the
// simulator's engine, internal/livenet from TCP paths and wall-clock
// timers, and internal/sessiontest from a virtual clock in
// tests; none of them holds ack, probe, condemnation, allocation or
// retransmit state of its own.
package session

import (
	"errors"

	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
)

// Config is a session's fixed shape. Times are in the driver's clock
// units.
type Config struct {
	// K is the number of path slots; M of N coded segments rebuild a
	// message (N ≤ erasure.MaxSegments).
	K, M, N int
	// Responder is the session's own responder; only messages to it can
	// ride a construction onion (§4.2).
	Responder netsim.NodeID
	// AckTimeout is §4.5's failure detector: a slot whose segment or
	// probe is unacknowledged this long after its round went out is
	// condemned.
	AckTimeout int64
	// MaxRetransmits bounds the rounds a message gets after its first;
	// zero means the first round's deadline is the verdict.
	MaxRetransmits int
	// MaxInflight bounds unresolved messages; zero means unbounded.
	MaxInflight int
}

// Reason says why a slot's path was given up.
type Reason uint8

const (
	AckTimeout   Reason = iota + 1 // a data round's deadline passed unacknowledged
	ProbeTimeout                   // a probe round's deadline passed unacknowledged
	Predicted                      // the driver's liveness predictor asked (§4.5); the slot stays in use
)

// Kind selects what an Output asks of the driver.
type Kind uint8

const (
	// Transmit: send segment (MID, Index, Data) to Dest over Slot.
	Transmit Kind = iota + 1
	// Probe: send liveness probe (MID, Index) over Slot.
	Probe
	// Cover: send cover padding over Slot; CoverShed: the padding due
	// now was shed instead (degraded, or the in-flight queue half full).
	Cover
	CoverShed
	// Arm: call Deadline(MID) at time At — or later: a driver whose
	// sends can block may count the timeout from when it has sent.
	Arm
	// Build: construct a path for Slot through relays of the driver's
	// choosing and report PathBuilt, PathFailed or Abandon. With First
	// set, segment (MID, Index, Data) rides the construction onion
	// (§4.2). Exclude is AppendInUse(nil, Slot) as it was when the
	// machine asked, in the slot's storage until its build concludes: a
	// driver that builds later than at once asks AppendInUse again when
	// it chooses.
	Build
	// Broken: Slot's path was given up for Reason.
	Broken
	// Repaired: a replacement path stands in Slot.
	Repaired
	// Acked: segment (MID, Index) was acknowledged for the first time;
	// OfProbe is set when MID is a probe round.
	Acked
	// Resolved: message MID has its verdict, Delivered or lost.
	Resolved
	// Retransmit: message MID starts another round.
	Retransmit
	// Forget: the machine reads data message MID's segments no more, and
	// the driver may reuse the buffer they lie in — after its verdict
	// (the record may outlive it: its ledger stays to its last deadline)
	// or, for a message torn down unresolved, at that deadline. Once per
	// data message, never for a probe round.
	Forget
)

// Output is one instruction or event for the driver. Which fields are
// set depends on Kind. Payload encodes the wire form of the sending
// kinds.
type Output struct {
	Kind      Kind
	Reason    Reason
	OfProbe   bool
	Delivered bool
	First     bool
	Slot      int
	MID       uint64
	Index     int32
	Dest      netsim.NodeID
	At        int64
	Data      []byte
	Exclude   []netsim.NodeID
}

// Scratch is the length of stack scratch (var buf [Scratch]Output) that
// takes an input's outputs without spilling to the heap up to the
// paper's widest configuration: a round over k = 8 slots and its Arm.
const Scratch = 10

// AckScratch is the same for Ack, whose outputs are at most three: the
// segment's Acked, and the Resolved and Forget of the ack that is its
// message's m-th.
const AckScratch = 3

// Errors returned by Send.
var (
	ErrTornDown = errors.New("session: torn down")
	ErrFull     = errors.New("session: in-flight queue full")
)

type slot struct {
	alive     bool
	repairing bool // a Build for this slot is outstanding
	relays    []netsim.NodeID
	exclude   []netsim.NodeID // the outstanding Build's Exclude
	// gen counts the constructions this slot has concluded; a job
	// carries the generation of the path it went out on.
	gen uint32
}

// job is one ledger entry: segment idx went out on slot.
type job struct {
	slot, idx int32
	gen       uint32
}

// message is the ack ledger of one round set: a data message (with its
// retransmit rounds) or one probe round. Records are recycled, with
// their lists' capacity (see forget and record).
type message struct {
	dest     netsim.NodeID
	segs     []erasure.Segment // the driver's segment headers; empty once resolved
	jobs     []job             // the current round
	acked    [erasure.MaxSegments / 64]uint64
	nAcked   int
	rounds   int
	probe    bool
	resolved bool
}

func (m *message) isAcked(idx int32) bool { return m.acked[idx>>6]&(1<<(idx&63)) != 0 }

// Machine is one initiator session. Not safe for concurrent use: a
// driver with several goroutines serialises the inputs and transmits
// the outputs after releasing its lock.
type Machine struct {
	cfg      Config
	slots    []slot
	msgs     map[uint64]*message // made by the first record
	free     []*message          // forgotten records, cleared, for new round sets
	inflight int
	repair   bool
	torn     bool
	// allocation scratch: each slot's share and its fractional
	// remainder, made by the first apportion
	counts []int
	rem    []float64
}

// New creates a machine with every slot down. A machine that never
// sends — a session that only establishes — has its slots and nothing
// more: the ledger's map and the allocation scratch come with the
// first round set.
func New(cfg Config) *Machine {
	return &Machine{cfg: cfg, slots: make([]slot, cfg.K)}
}

// EnableRepair turns on §4.5 reconstruction: a condemned slot asks for
// a replacement path at once and again on every Repairs input while it
// is down, and a message to the responder sent while its slot is down
// rides a fresh construction.
func (m *Machine) EnableRepair() { m.repair = true }

// Alive returns the number of slots whose path stands.
func (m *Machine) Alive() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].alive {
			n++
		}
	}
	return n
}

// SlotAlive reports whether slot's path stands.
func (m *Machine) SlotAlive(slot int) bool { return m.slots[slot].alive }

// Relays returns the relays of the path that stands, or last stood, in
// slot. The slice is the machine's.
func (m *Machine) Relays(slot int) []netsim.NodeID { return m.slots[slot].relays }

// Degraded reports whether the session runs below its full width.
func (m *Machine) Degraded() bool { return !m.torn && m.Alive() < m.cfg.K }

// Inflight returns the number of unresolved messages.
func (m *Machine) Inflight() int { return m.inflight }

// Armed returns the number of deadlines the machine is waiting for:
// none once torn down, though records linger until their timers fire.
func (m *Machine) Armed() int {
	if m.torn {
		return 0
	}
	return len(m.msgs)
}

// Payload encodes the application message a Transmit, Probe or Build
// output sends. Like PayloadSize and AppendPayload it reads only the
// fixed configuration, so a driver may call it after releasing its
// lock.
func (m *Machine) Payload(o Output) []byte {
	return m.AppendPayload(make([]byte, 0, m.PayloadSize(o)), o)
}

// PayloadSize is the length of Payload(o).
func (m *Machine) PayloadSize(o Output) int {
	if o.Kind == Probe {
		return AckSize
	}
	return SegmentOverhead + len(o.Data)
}

// AppendPayload appends Payload(o) to b, for a driver that encodes the
// message where it is sealed instead of into a buffer of its own.
func (m *Machine) AppendPayload(b []byte, o Output) []byte {
	if o.Kind == Probe {
		return Ack{MID: o.MID, Index: o.Index}.AppendEncode(b, KindProbe)
	}
	return Segment{
		MID: o.MID, Index: o.Index,
		Total: int32(m.cfg.N), Needed: int32(m.cfg.M), Data: o.Data,
	}.AppendEncode(b, KindSegment)
}

// PathUp records that slot's first path stands through relays
// (establishment; replacements report PathBuilt).
func (m *Machine) PathUp(slot int, relays []netsim.NodeID) {
	sl := &m.slots[slot]
	sl.alive, sl.relays = true, relays
	sl.gen++
}

// PathDown records that slot's first construction through relays
// failed: the slot starts down, and its relays are the ones a chooser
// may want to avoid.
func (m *Machine) PathDown(slot int, relays []netsim.NodeID) { m.slots[slot].relays = relays }

// apportion fills counts with each slot's share of nSegs segments.
func (m *Machine) apportion(nSegs int, scores []float64) {
	k := len(m.slots)
	if m.counts == nil {
		m.counts, m.rem = make([]int, k), make([]float64, k)
	}
	if scores == nil {
		// Any remainder goes round-robin (only possible when nSegs is
		// not a multiple of k, which the paper excludes).
		for i := range m.counts {
			m.counts[i] = nSegs / k
			if i < nSegs%k {
				m.counts[i]++
			}
		}
		return
	}
	var total float64
	for i := range m.slots {
		m.counts[i], m.rem[i] = 0, -1
		if m.slots[i].alive {
			total += floorScore(scores[i])
		}
	}
	if total == 0 {
		return
	}
	used := 0
	for i := range m.slots {
		if m.slots[i].alive {
			exact := float64(nSegs) * floorScore(scores[i]) / total
			m.counts[i] = int(exact)
			m.rem[i] = exact - float64(m.counts[i])
			used += m.counts[i]
		}
	}
	for ; used < nSegs; used++ {
		best := -1
		for i, r := range m.rem {
			if m.slots[i].alive && (best < 0 || r > m.rem[best]) {
				best = i
			}
		}
		m.counts[best]++
		m.rem[best] = -1
	}
}

// Each visits the allocation of segment indices 0..nSegs-1 to slots, in
// the order a round transmits them: the even split of §4.7 over all
// slots (a down slot's share is lost, the Bernoulli model), or, given
// per-slot scores, the §7 weighted extension — live slots only,
// largest-remainder apportionment by score (floored so every live slot
// gets some share). Slot-major: the even split gives slot i the block
// [i*per, (i+1)*per) and then every k-th index of the remainder; the
// weighted one deals indices out in slot order.
func (m *Machine) Each(nSegs int, scores []float64, visit func(slot, idx int)) {
	m.apportion(nSegs, scores)
	k, per, next := len(m.slots), nSegs/len(m.slots), 0
	for i, n := range m.counts {
		for j := 0; j < n; j++ {
			idx := next
			if scores == nil {
				if idx = i*per + j; j >= per {
					idx = per*k + i + (j-per)*k
				}
			}
			visit(i, idx)
			next++
		}
	}
}

func floorScore(s float64) float64 {
	if s < 0.01 {
		return 0.01
	}
	return s
}

// homeSlot is where the even split puts segment idx.
func (m *Machine) homeSlot(idx int) int {
	k := len(m.slots)
	if per := m.cfg.N / k; idx < per*k {
		return idx / per
	}
	return idx % k
}

// Send starts message mid to dest: its coded segments go out per the
// allocation (scores nil for even) and the round's deadline is armed.
// A segment whose slot is down is not sent — unless repair is on, the
// message goes to the responder and the slot carries just that one
// segment, in which case it rides a replacement path's construction.
// The message is recorded even when nothing could be sent; its
// deadline is then its verdict or its first retransmission.
func (m *Machine) Send(out []Output, now int64, mid uint64, dest netsim.NodeID, segs []erasure.Segment, scores []float64) ([]Output, error) {
	if m.torn {
		return out, ErrTornDown
	}
	if m.cfg.MaxInflight > 0 && m.inflight >= m.cfg.MaxInflight {
		return out, ErrFull
	}
	// The record copies the headers of segs, so the slice is the driver's
	// scratch again when Send returns; it reads the bytes they point at
	// until the verdict, whose Forget hands them back. Its ledger lives on
	// to its last deadline (see resolve).
	msg := m.record(mid)
	msg.dest, msg.segs = dest, append(msg.segs, segs...)
	m.inflight++
	m.Each(len(segs), scores, func(si, idx int) {
		sl := &m.slots[si]
		o := Output{Kind: Transmit, Slot: si, MID: mid, Index: int32(segs[idx].Index), Dest: dest, Data: segs[idx].Data}
		switch {
		case sl.alive:
			out = append(out, o)
			msg.jobs = append(msg.jobs, job{slot: int32(si), idx: o.Index, gen: sl.gen})
		case m.repair && dest == m.cfg.Responder && !sl.repairing && m.counts[si] == 1:
			o.Kind, o.First = Build, true
			out = m.build(out, si, o)
			msg.jobs = append(msg.jobs, job{slot: int32(si), idx: o.Index, gen: sl.gen + 1})
		}
	})
	return append(out, Output{Kind: Arm, MID: mid, At: now + m.cfg.AckTimeout}), nil
}

// AppendInUse appends to dst the relays a new path for slot must avoid
// to keep the k paths node-disjoint: those of every other path that
// stands now.
func (m *Machine) AppendInUse(dst []netsim.NodeID, slot int) []netsim.NodeID {
	for i := range m.slots {
		if i != slot && m.slots[i].alive {
			dst = append(dst, m.slots[i].relays...)
		}
	}
	return dst
}

// build marks slot as under construction and emits the Build request,
// its Exclude in the slot's storage: a slot has one Build outstanding
// at a time.
func (m *Machine) build(out []Output, si int, o Output) []Output {
	sl := &m.slots[si]
	if sl.repairing {
		return out
	}
	sl.repairing = true
	sl.exclude = m.AppendInUse(sl.exclude[:0], si)
	o.Kind, o.Slot, o.Exclude = Build, si, sl.exclude
	return append(out, o)
}

// Abandon reports that a Build never entered the network (no relays,
// or the launch failed at once): the slot is free for another attempt
// and the segment that was to ride it is not awaited.
func (m *Machine) Abandon(b Output) {
	m.slots[b.Slot].repairing = false
	if msg := m.msgs[b.MID]; b.First && msg != nil {
		for i, j := range msg.jobs {
			if int(j.slot) == b.Slot && j.idx == b.Index {
				msg.jobs = append(msg.jobs[:i], msg.jobs[i+1:]...)
				break
			}
		}
	}
}

// PathBuilt reports that the path a Build asked for stands.
func (m *Machine) PathBuilt(out []Output, slot int, relays []netsim.NodeID) []Output {
	if m.torn {
		return out
	}
	sl := &m.slots[slot]
	sl.repairing, sl.alive, sl.relays = false, true, relays
	sl.gen++
	return append(out, Output{Kind: Repaired, Slot: slot})
}

// PathFailed reports that the construction a Build launched failed.
// The slot stays as it was; the next Repairs input asks again.
func (m *Machine) PathFailed(slot int) {
	sl := &m.slots[slot]
	sl.repairing = false
	sl.gen++ // the segment that rode the failed construction is owed to no later path
}

// Ack takes in an acknowledgment of segment (mid, idx) — from whichever
// path it came back on. The first ack of a segment clears its ledger
// entries; the m-th resolves a data message as delivered and releases
// its segments. AckScratch outputs hold what it returns.
func (m *Machine) Ack(out []Output, mid uint64, idx int32) []Output {
	msg := m.msgs[mid]
	if m.torn || msg == nil || idx < 0 || int(idx) >= erasure.MaxSegments || msg.isAcked(idx) {
		return out
	}
	msg.acked[idx>>6] |= 1 << (idx & 63)
	msg.nAcked++
	out = append(out, Output{Kind: Acked, MID: mid, Index: idx, OfProbe: msg.probe})
	if !msg.probe && !msg.resolved && msg.nAcked >= m.cfg.M {
		out = m.resolve(out, mid, msg, true)
	}
	return out
}

// resolve gives data message mid its verdict and releases its segments:
// nothing after a verdict resends them. The record's jobs and acked set
// stay until its last deadline, which condemns the slots that never
// acknowledged.
func (m *Machine) resolve(out []Output, mid uint64, msg *message, delivered bool) []Output {
	msg.resolved = true
	clear(msg.segs)
	msg.segs = msg.segs[:0]
	m.inflight--
	return append(out, Output{Kind: Resolved, MID: mid, Delivered: delivered}, Output{Kind: Forget, MID: mid})
}

// Deadline is the armed timer of round set mid firing: every slot that
// carried a still-unacknowledged segment of the round is condemned (in
// job order — for a first round, slot order), then the message is
// dropped, given its verdict, or retransmitted. Unknown IDs are a no-op,
// and so is any ID after Teardown but for the record's Forget.
func (m *Machine) Deadline(out []Output, now int64, mid uint64) []Output {
	msg := m.msgs[mid]
	if msg == nil || m.torn {
		return m.forget(out, mid, msg)
	}
	reason := AckTimeout
	if msg.probe {
		reason = ProbeTimeout
	}
	for _, j := range msg.jobs {
		sl := &m.slots[j.slot]
		if msg.isAcked(j.idx) || !sl.alive {
			continue
		}
		// A miss is evidence against the path that carried the segment,
		// not against a replacement built since: charging the slot would
		// let every round outstanding on a path when it died condemn its
		// replacement in turn.
		if j.gen != sl.gen {
			continue
		}
		sl.alive = false
		out = append(out, Output{Kind: Broken, Slot: int(j.slot), Reason: reason})
		if m.repair {
			out = m.build(out, int(j.slot), Output{})
		}
	}
	switch {
	case msg.probe || msg.resolved:
		out = m.forget(out, mid, msg)
	case msg.rounds >= m.cfg.MaxRetransmits:
		out = m.forget(m.resolve(out, mid, msg, false), mid, msg)
	default:
		out = m.retransmit(out, now, mid, msg)
	}
	return out
}

// forget deletes round set mid's record, announcing a data message's
// that no verdict released: one torn down unresolved. It is the one
// place a record leaves m.msgs, and the record goes to the free list
// cleared: it points at no segment, and a round set that reuses it
// starts with nothing acked.
func (m *Machine) forget(out []Output, mid uint64, msg *message) []Output {
	if msg == nil {
		return out
	}
	delete(m.msgs, mid)
	if !msg.probe && !msg.resolved {
		out = append(out, Output{Kind: Forget, MID: mid})
	}
	clear(msg.segs)
	*msg = message{segs: msg.segs[:0], jobs: msg.jobs[:0]}
	m.free = append(m.free, msg)
	return out
}

// record returns an empty record, from the free list when it has one,
// entered in m.msgs as round set mid's.
func (m *Machine) record(mid uint64) *message {
	var msg *message
	if n := len(m.free); n > 0 {
		msg, m.free = m.free[n-1], m.free[:n-1]
	} else {
		msg = &message{jobs: make([]job, 0, max(m.cfg.N, m.cfg.K))}
	}
	if m.msgs == nil {
		m.msgs = make(map[uint64]*message)
	}
	m.msgs[mid] = msg
	return msg
}

// retransmit sends every unacknowledged segment again: on its home
// slot when that stands, otherwise round-robin over the slots that do.
func (m *Machine) retransmit(out []Output, now int64, mid uint64, msg *message) []Output {
	msg.rounds++
	msg.jobs = msg.jobs[:0]
	out = append(out, Output{Kind: Retransmit, MID: mid})
	if m.Alive() > 0 {
		next := 0 // round-robin cursor over the standing slots
		for _, seg := range msg.segs {
			idx := int32(seg.Index)
			if msg.isAcked(idx) {
				continue
			}
			si := m.homeSlot(seg.Index)
			if !m.slots[si].alive {
				for si = next % len(m.slots); !m.slots[si].alive; si = (si + 1) % len(m.slots) {
				}
				next = si + 1
			}
			out = append(out, Output{Kind: Transmit, Slot: si, MID: mid, Index: idx, Dest: msg.dest, Data: seg.Data})
			msg.jobs = append(msg.jobs, job{slot: int32(si), idx: idx, gen: m.slots[si].gen})
		}
	}
	return append(out, Output{Kind: Arm, MID: mid, At: now + m.cfg.AckTimeout})
}

// Repairs asks again for a replacement of every slot that is down and
// has no construction outstanding (the probe tick's first half).
func (m *Machine) Repairs(out []Output) []Output {
	if m.torn {
		return out
	}
	for i := range m.slots {
		if !m.slots[i].alive {
			out = m.build(out, i, Output{})
		}
	}
	return out
}

// ProbeRound sends one probe down every standing path as round set mid
// and arms its deadline (the probe tick's second half). With no path
// standing it does nothing.
func (m *Machine) ProbeRound(out []Output, now int64, mid uint64) []Output {
	if m.torn || m.Alive() == 0 {
		return out
	}
	msg := m.record(mid)
	msg.probe = true
	for i := range m.slots {
		if sl := &m.slots[i]; sl.alive {
			out = append(out, Output{Kind: Probe, Slot: i, MID: mid, Index: int32(i)})
			msg.jobs = append(msg.jobs, job{slot: int32(i), idx: int32(i), gen: sl.gen})
		}
	}
	return append(out, Output{Kind: Arm, MID: mid, At: now + m.cfg.AckTimeout})
}

// Replace gives up slot's path on the driver's prediction (§4.5): the
// path stays in use until its replacement stands.
func (m *Machine) Replace(out []Output, slot int) []Output {
	if m.torn || !m.slots[slot].alive {
		return out
	}
	out = append(out, Output{Kind: Broken, Slot: slot, Reason: Predicted})
	return m.build(out, slot, Output{})
}

// CoverTick decides the cover message due now: shed when the session
// is degraded or its in-flight queue is half full — cover is the first
// load to go — otherwise sent down the path pick selects.
func (m *Machine) CoverTick(out []Output, pick uint64) []Output {
	if m.torn {
		return out
	}
	if m.Alive() < len(m.slots) || (m.cfg.MaxInflight > 0 && m.inflight >= m.cfg.MaxInflight/2) {
		return append(out, Output{Kind: CoverShed})
	}
	return append(out, Output{Kind: Cover, Slot: int(pick % uint64(len(m.slots)))})
}

// Teardown ends the session: every later input is a no-op, armed
// deadlines included — except that each still deletes its record,
// which lives as long as it would have, with a Forget if no verdict
// released it.
func (m *Machine) Teardown() {
	m.torn = true
	m.inflight = 0
	for i := range m.slots {
		m.slots[i].alive = false
	}
}
