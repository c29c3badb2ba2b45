package sim

import (
	"math"
	"math/bits"
)

// eventQueue is a radix heap ordered by (at, seq). It rests on time
// never running backwards: every push is at or after the engine's now,
// which is at or after base, the time of the last event popped. An
// event waits in bucket bits.Len64(at ^ base) — 0 when it is due at
// base itself, otherwise one past the highest bit in which its time
// differs from base — so a push is an append. Bucket 0 holds the events
// due at base. When it runs dry, the lowest non-empty bucket is
// redistributed around its earliest time, which becomes the new base,
// and each of its events lands in a lower bucket: an event moves at
// most once per bit of its delay, and no pop compares two events.
//
// Events due at the same time share a bucket, and within a bucket they
// lie in seq order: a push appends the newest seq, and redistribution,
// compaction and rebase keep relative order. So bucket 0 pops FIFO, and
// the pop sequence is the unique (at, seq) order.
//
// A bucket is a chain of fixed-size chunks drawn from one free list. It
// keeps its last chunk when it empties and hands the others back as
// they are read, so the queue holds its pending events and about one
// chunk per bucket in use, never each bucket's high-water mark: a burst
// cascading down the buckets moves chunks, and no bucket grows by
// copying.
type eventQueue struct {
	base Time
	n    int    // queued events
	full uint64 // bit i set while bucket i < 64 holds events
	b    [65]bucket

	chunks []*chunk // by id; id 0 means none
	next   []uint32 // by id: the next chunk of its bucket, or of the free list
	free   uint32   // first free chunk

	scratch []event // compaction's and rebase's
}

// chunkLen is the number of events in a chunk: 2 KB of storage.
const chunkLen = 64

type chunk [chunkLen]event

// bucket is a FIFO over the chunk chain first..last. The zero bucket
// holds no chunk and has no room, so its first put takes one.
type bucket struct {
	first, last uint32
	head, room  uint32 // the next event in first; free slots in last
	min         Time   // the earliest time put since it was empty
	tail        *chunk // chunk last
}

// bucket returns the bucket an event due at `at` waits in.
func (q *eventQueue) bucket(at Time) int { return bits.Len64(uint64(at ^ q.base)) }

// lowest returns the lowest non-empty bucket above 0 and the earliest
// time in it. Some bucket above 0 must hold an event; bucket 64, which
// only a clock set back below zero uses, has no bit in full.
func (q *eventQueue) lowest() (int, Time) {
	i := bits.TrailingZeros64(q.full &^ 1)
	return i, q.b[i].min
}

// put appends ev to bucket i.
func (q *eventQueue) put(i int, ev event) {
	b := &q.b[i]
	if b.room == 0 {
		q.extend(b)
	}
	if ev.at < b.min {
		b.min = ev.at
	}
	b.tail[(chunkLen-b.room)%chunkLen] = ev
	b.room--
	q.full |= 1 << i
}

// extend gives bucket b, whose last chunk is full or which has none, a
// free chunk, allocating one when none is free.
func (q *eventQueue) extend(b *bucket) {
	c := q.free
	if c != 0 {
		q.free = q.next[c]
		q.next[c] = 0
	} else {
		if len(q.chunks) == 0 {
			q.chunks, q.next = append(q.chunks, nil), append(q.next, 0)
		}
		q.chunks, q.next = append(q.chunks, new(chunk)), append(q.next, 0)
		c = uint32(len(q.chunks) - 1)
	}
	if b.last == 0 {
		b.first, b.min = c, math.MaxInt64
	} else {
		q.next[b.last] = c
	}
	b.last, b.room, b.tail = c, chunkLen, q.chunks[c]
}

// span returns the queued events chunk c of bucket b holds.
func (q *eventQueue) span(b *bucket, c uint32) []event {
	evs := q.chunks[c][:]
	if c == b.last {
		evs = evs[:chunkLen-b.room]
	}
	if c == b.first {
		evs = evs[b.head:]
	}
	return evs
}

// drop moves past chunk c of bucket i, which has been read: a chunk
// before the last goes back to the free list, and the last is kept,
// emptied.
func (q *eventQueue) drop(i int, c uint32) {
	b := &q.b[i]
	if c != b.last {
		b.first, b.head = q.next[c], 0
		q.next[c] = q.free
		q.free = c
		return
	}
	b.head, b.room, b.min = 0, chunkLen, math.MaxInt64
	q.full &^= 1 << i
}

// push queues ev, whose time is at or after base.
func (q *eventQueue) push(ev event) {
	q.put(q.bucket(ev.at), ev)
	q.n++
}

// settle makes m, the earliest time in bucket i, the base and
// redistributes bucket i below it. Bucket i is the lowest non-empty
// one.
func (q *eventQueue) settle(i int, m Time) {
	q.base = m
	src := &q.b[i]
	for c := src.first; ; {
		for _, ev := range q.span(src, c) {
			// put, by hand: this loop is where events spend their moves.
			j := q.bucket(ev.at) // below i: the bits above i-1 match m's
			b := &q.b[j]
			if b.room == 0 {
				q.extend(b)
			}
			if ev.at < b.min {
				b.min = ev.at
			}
			b.tail[(chunkLen-b.room)%chunkLen] = ev
			b.room--
			q.full |= 1 << j
		}
		last, next := c == src.last, q.next[c]
		q.drop(i, c)
		if last {
			return
		}
		c = next
	}
}

// ready reports whether the earliest queued event is due at or before
// until, and if it is, has bucket 0 hold it. A later time it only
// reads, never settles on: once Run returns, a push may land before it.
func (q *eventQueue) ready(until Time) bool {
	if q.full&1 != 0 {
		return q.base <= until
	}
	i, m := q.lowest()
	if m > until {
		return false
	}
	q.settle(i, m)
	return true
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() event {
	if q.full&1 == 0 {
		q.settle(q.lowest())
	}
	b := &q.b[0]
	c := b.first
	ev := q.chunks[c][b.head]
	b.head++
	if b.head == chunkLen || c == b.last && b.head == chunkLen-b.room {
		q.drop(0, c)
	}
	q.n--
	return ev
}

// empty appends bucket i's events to dst, in order, and empties it.
func (q *eventQueue) empty(i int, dst []event) []event {
	if q.b[i].last == 0 {
		return dst
	}
	for c := q.b[i].first; ; {
		dst = append(dst, q.span(&q.b[i], c)...)
		last, next := c == q.b[i].last, q.next[c]
		q.drop(i, c)
		if last {
			return dst
		}
		c = next
	}
}

// filter keeps the queued events keep reports true for, in order.
func (q *eventQueue) filter(keep func(*event) bool) {
	for i := range q.b {
		q.scratch = q.empty(i, q.scratch[:0])
		for _, ev := range q.scratch {
			if keep(&ev) {
				q.put(i, ev)
			} else {
				q.n--
			}
		}
	}
}

// rebase moves the base back to t, before every queued event, for a
// clock Run has set back. Events due at the same time come out of one
// bucket in their order, so pushing them again keeps the invariant.
func (q *eventQueue) rebase(t Time) {
	all := q.scratch[:0]
	for i := range q.b {
		all = q.empty(i, all)
	}
	q.base, q.n = t, 0
	for _, ev := range all {
		q.push(ev)
	}
	q.scratch = all
}
