package session

import (
	"resilientmix/internal/bufpool"
	"resilientmix/internal/erasure"
)

// Verdict is what the reassembler made of one arriving segment.
type Verdict uint8

const (
	// Rejected: invalid code shape or index, or a shape or segment
	// length that disagrees with the message's earlier segments. Not
	// stored, not to be acked.
	Rejected Verdict = iota
	// Stored: a new segment of a message still short of m.
	Stored
	// Ready: a new segment, and the message now holds at least m —
	// call Reconstruct.
	Ready
	// Duplicate: an index the message already holds.
	Duplicate
	// Late: the message was reconstructed before this segment arrived.
	Late
)

// Reassembler collects coded segments by message ID until any m of a
// message's n arrived (§4.2). It is the receiving half of a session at
// the responder and, for responses and rendezvous conversations, at the
// initiator. A message is marked done only by a reconstruction that
// succeeded, so segments that do not decode cannot poison its ID, and
// done messages are remembered (without their segments) until they
// expire, so a retransmitted segment is recognised as late rather than
// starting the message again. Expiry is the caller's: every arrival
// pushes a message's expiry one horizon out, and Sweep drops what has
// passed it. Not safe for concurrent use.
//
// The reassembler holds what it stores: a segment arrives with the
// handle of the pooled buffer (internal/bufpool) its bytes lie in, and
// a Stored or Ready segment's handle is the reassembler's from then on.
// It gives the handles of a message back to the pool when it no longer
// reads them — once Reconstruct has decoded the message, or when Sweep
// forgets a message that never was. The handle of a segment it did not
// store (Rejected, Duplicate, Late) stays the caller's to release.
//
// Each message also keeps a list of H for its driver, which lives as
// long as the message: core's responder keeps there one reply handle
// per path that delivered a segment, the reverse paths a response can
// use. Records are recycled: Sweep clears the record of a message it
// forgets, the list of H included, and keeps it for a new message, so
// nothing may hold on to a message's list past that Sweep.
type Reassembler[H any] struct {
	horizon int64
	msgs    map[uint64]*assembly[H]
	code    *erasure.Code    // the most recent shape's decoder
	release func(bp *[]byte) // bufpool.Release; tests count through it
	// spare holds the emptied lists of messages rebuilt or forgotten, for
	// new messages to fill; free holds the cleared records of forgotten
	// messages, with their lists of H, for new messages; block holds
	// records never used yet, made a block at a time (fresh).
	spare []lists
	free  []*assembly[H]
	block []assembly[H]
}

type assembly[H any] struct {
	lists         // empty once done
	replies       []H
	needed, total int32
	done          bool
	first         int64
	expires       int64
}

// lists are what a message holds: its segments, and the pooled buffers
// they lie in.
type lists struct {
	segs []erasure.Segment
	bufs []*[]byte
}

// NewReassembler returns a reassembler whose messages expire horizon
// clock units after their last segment. A driver that keeps nothing
// per message makes H struct{}.
func NewReassembler[H any](horizon int64) *Reassembler[H] {
	return &Reassembler[H]{horizon: horizon, msgs: make(map[uint64]*assembly[H]), release: bufpool.Release}
}

// fresh returns a record never used before. Until the first Sweep
// forgets a message every new message needs one, and the reassembler
// holds them all at once — up to two horizons of messages — and keeps
// them for reuse after, so they are made a block at a time, as many as
// are held already (8 at least, 256 at most): the records of a horizon
// cost a few allocations, not one each.
func (r *Reassembler[H]) fresh() *assembly[H] {
	if len(r.block) == 0 {
		r.block = make([]assembly[H], min(max(len(r.msgs), 8), 256))
	}
	a := &r.block[0]
	r.block = r.block[1:]
	return a
}

// Add takes in one segment, whose bytes lie in the pooled buffer buf
// (nil when they are in no pooled buffer). On Stored and Ready the
// reassembler keeps buf; on any other verdict the caller still owns it.
// On Ready the caller (after acknowledging, which §4.5's failure
// detector is waiting for) calls Reconstruct. Unless the verdict is
// Rejected, replies points at the message's list of H — empty for a
// message new to the reassembler — for the caller to read and append
// to: one lookup serves the segment and the driver's state.
func (r *Reassembler[H]) Add(now int64, s Segment, buf *[]byte) (v Verdict, replies *[]H) {
	if !ValidCodeShape(s.Needed, s.Total) || s.Index < 0 || s.Index >= s.Total {
		return Rejected, nil
	}
	a := r.msgs[s.MID]
	if a == nil {
		if n := len(r.free); n > 0 {
			a, r.free = r.free[n-1], r.free[:n-1]
		} else {
			a = r.fresh()
		}
		a.needed, a.total, a.first = s.Needed, s.Total, now
		// m segments complete the message; ValidCodeShape bounds m.
		// A spare too short for this shape is dropped, not kept: spare
		// then never outnumbers the messages held at once.
		if n := len(r.spare); n > 0 {
			a.lists, r.spare = r.spare[n-1], r.spare[:n-1]
		}
		if cap(a.segs) < int(s.Needed) {
			a.lists = lists{make([]erasure.Segment, 0, s.Needed), make([]*[]byte, 0, s.Needed)}
		}
		r.msgs[s.MID] = a
	}
	a.expires = now + r.horizon
	if a.needed != s.Needed || a.total != s.Total {
		return Rejected, nil
	}
	if a.done {
		return Late, &a.replies
	}
	for _, have := range a.segs {
		if have.Index == int(s.Index) {
			return Duplicate, &a.replies
		}
	}
	// Every segment of a message is as long as its first, so a Ready
	// message's m segments are m × that length of bytes received — what
	// a caller sizes ReconstructInto's buffer by.
	if len(a.segs) > 0 && len(s.Data) != len(a.segs[0].Data) {
		return Rejected, nil
	}
	a.segs = append(a.segs, erasure.Segment{Index: int(s.Index), Data: s.Data})
	if buf != nil {
		a.bufs = append(a.bufs, buf)
	}
	if len(a.segs) >= int(a.needed) {
		return Ready, &a.replies
	}
	return Stored, &a.replies
}

// Reconstruct decodes a message that reported Ready. On success the
// message is done: its segments are dropped, the buffers they lay in go
// back to the pool, and it is never delivered again. It returns the
// message, how many segments it held and when its first one arrived.
func (r *Reassembler[H]) Reconstruct(mid uint64) (data []byte, segments int, first int64, ok bool) {
	return r.ReconstructInto(mid, nil)
}

// ReconstructInto is Reconstruct decoding into dst, as
// erasure.(*Code).ReconstructInto does: dst needs the message's m times
// a segment's length of capacity, or a fresh buffer is allocated.
func (r *Reassembler[H]) ReconstructInto(mid uint64, dst []byte) (data []byte, segments int, first int64, ok bool) {
	a := r.msgs[mid]
	if a == nil || a.done || len(a.segs) < int(a.needed) {
		return nil, 0, 0, false
	}
	if r.code == nil || r.code.M() != int(a.needed) || r.code.N() != int(a.total) {
		code, err := erasure.New(int(a.needed), int(a.total))
		if err != nil {
			return nil, 0, 0, false
		}
		r.code = code
	}
	data, err := r.code.ReconstructInto(dst, a.segs)
	if err != nil {
		return nil, 0, 0, false
	}
	segments = len(a.segs)
	r.drop(a)
	a.done = true
	return data, segments, a.first, true
}

// drop forgets a message's segments, releases the buffers they lay in
// and keeps the emptied lists for another message.
func (r *Reassembler[H]) drop(a *assembly[H]) {
	if a.segs == nil {
		return
	}
	for _, bp := range a.bufs {
		r.release(bp)
	}
	clear(a.segs)
	clear(a.bufs)
	r.spare = append(r.spare, lists{a.segs[:0], a.bufs[:0]})
	a.lists = lists{}
}

// Shape returns the code shape of a message, whether it has been
// reconstructed and its list of H; ok is false for an unknown (or
// expired) message.
func (r *Reassembler[H]) Shape(mid uint64) (needed, total int32, done bool, replies []H, ok bool) {
	a := r.msgs[mid]
	if a == nil {
		return 0, 0, false, nil, false
	}
	return a.needed, a.total, a.done, a.replies, true
}

// Sweep forgets every message whose expiry has passed, releasing the
// buffers of those never reconstructed, and keeps their records,
// cleared, for new messages.
func (r *Reassembler[H]) Sweep(now int64) {
	for mid, a := range r.msgs {
		if a.expires <= now {
			r.drop(a)
			delete(r.msgs, mid)
			clear(a.replies)
			*a = assembly[H]{replies: a.replies[:0]}
			r.free = append(r.free, a)
		}
	}
}

// Len returns the number of messages remembered, done or not.
func (r *Reassembler[H]) Len() int { return len(r.msgs) }
