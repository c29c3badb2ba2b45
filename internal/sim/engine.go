// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock with microsecond resolution, a radix-heap event queue
// (queue.go) with stable FIFO ordering for simultaneous events, and a
// seeded random number generator. It is the substrate standing in for
// p2psim in the paper's evaluation (§6.1) — see DESIGN.md, substitution
// 1.
//
// There are two ways to schedule and one queue under both. Schedule,
// ScheduleAt, After and Every take a closure. ScheduleTyped takes a
// handler registered once (Register) and a uint64 argument, for a layer
// that schedules the same call millions of times — netsim's deliveries,
// core's round deadlines — and parks whatever else the call needs in a
// Slab. Either way the queue entry is 32 bytes and holds no pointer.
//
// An Engine is single-goroutine by design: all scheduled callbacks run
// sequentially from Run, so handlers never need locks. Parallelism in
// the experiment harnesses comes from running many independent Engines,
// one per goroutine.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"resilientmix/internal/obs"
)

// Time is a point in virtual time, in microseconds since the start of
// the simulation.
type Time int64

// Common durations in virtual-time units.
const (
	Microsecond Time = 1
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// FromDuration converts a wall-clock duration to virtual time.
func FromDuration(d time.Duration) Time { return Time(d.Microseconds()) }

// FromSeconds converts seconds (possibly fractional) to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Func names a handler registered with Engine.Register.
type Func uint32

// event is a scheduled call. Events are stored by value in the queue
// and hold no pointer: moving one between buckets copies 32 bytes with
// no write barrier, and the collector never scans the queue's storage.
// A typed event (fn != 0) calls the registered handler fn with arg. A
// closure event (fn == 0) keeps its callback and cancel flag in the
// engine's thunk slab, at slot arg.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	arg uint64
	fn  Func
}

// thunk is what a closure event runs: the callback and, for a timer,
// its period (Every; zero for After) and lazy-deletion flag. gen counts
// the slot's occupants, so a Timer outliving its callback names a slot
// that has moved on.
type thunk struct {
	fn       func()
	interval Time
	gen      uint32
	canceled bool
}

// thunkTable is the engine's slab of thunks. Unlike Slab it keeps each
// slot's generation across occupants: the cancel flag a Timer names
// lives here, and the generation is what makes a stale Timer harmless.
type thunkTable struct {
	vals []thunk
	free []uint32
}

// put stores a callback and returns its slot.
func (t *thunkTable) put(fn func()) uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.vals[i].fn = fn
		return i
	}
	t.vals = append(t.vals, thunk{fn: fn})
	return uint32(len(t.vals) - 1)
}

// release empties slot i for its next occupant: the callback goes, the
// flag clears, and the generation moves on.
func (t *thunkTable) release(i uint32) {
	t.vals[i] = thunk{gen: t.vals[i].gen + 1}
	t.free = append(t.free, i)
}

// Len returns the number of occupied slots.
func (t *thunkTable) Len() int { return len(t.vals) - len(t.free) }

// Slab stores values in numbered slots and hands freed slots out again,
// so a steady population allocates nothing. It is where the state
// behind a typed event waits: Put the state, schedule the slot number
// as the event's argument, Take it back in the handler. The zero Slab
// is empty and ready to use.
type Slab[T any] struct {
	vals []T
	free []uint32
}

// Put stores v and returns its slot.
func (s *Slab[T]) Put(v T) uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.vals[i] = v
		return i
	}
	s.vals = append(s.vals, v)
	return uint32(len(s.vals) - 1)
}

// Take empties slot i, which must hold a value, and returns what it
// held. The slot keeps no reference to it.
func (s *Slab[T]) Take(i uint32) T {
	v := s.vals[i]
	var zero T
	s.vals[i] = zero
	s.free = append(s.free, i)
	return v
}

// Len returns the number of occupied slots.
func (s *Slab[T]) Len() int { return len(s.vals) - len(s.free) }

// Engine is a deterministic discrete-event simulator.
type Engine struct {
	now      Time
	seq      uint64
	queue    eventQueue
	rng      *rand.Rand
	stopped  bool
	ran      uint64 // events executed, for diagnostics
	canceled int    // canceled entries still occupying queue slots

	funcs  []func(uint64) // registered handlers; Func 0 is the closure event
	thunks thunkTable     // callbacks of the queued closure events

	// tracer, when non-nil, receives EventScheduled/EventFired for
	// every queue operation. The nil default costs one branch per
	// event — the whole price of disabled observability.
	tracer obs.Tracer
}

// NewEngine returns an engine whose RNG is seeded with seed. Two engines
// with the same seed and the same scheduled work produce identical
// histories.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), funcs: make([]func(uint64), 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random source. All simulation randomness must
// flow through it to preserve determinism.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// SetTracer installs (or, with nil, removes) the engine's trace sink.
// Tracing never consumes engine randomness, so enabling it cannot
// change a seeded history.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.n }

// Executed returns the number of events that have run.
func (e *Engine) Executed() uint64 { return e.ran }

// Schedule runs fn after delay. A negative delay is treated as zero.
// Events scheduled for the same instant run in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, fn, "Schedule")
}

// ScheduleAt runs fn at the given absolute virtual time. Times in the
// past are clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.schedule(at, fn, "ScheduleAt")
}

// Register adds a handler for typed events and returns its name. A
// layer that schedules one kind of call many times registers it once
// and passes what varies as the argument — a number, or the slot of a
// Slab holding the rest — so an event costs no closure. Handlers stay
// registered for the engine's lifetime: register per long-lived object,
// never per event.
func (e *Engine) Register(fn func(arg uint64)) Func {
	if fn == nil {
		panic("sim: Register with nil handler")
	}
	e.funcs = append(e.funcs, fn)
	return Func(len(e.funcs) - 1)
}

// ScheduleTyped runs the handler f with arg after delay. It is Schedule
// without the closure: same queue, same numbering, same FIFO order
// among simultaneous events of either kind.
func (e *Engine) ScheduleTyped(delay Time, f Func, arg uint64) {
	if f == 0 || int(f) >= len(e.funcs) {
		panic("sim: ScheduleTyped with unregistered handler")
	}
	if delay < 0 {
		delay = 0
	}
	e.enqueue(e.now+delay, f, arg)
}

// schedule enqueues a closure event and returns its thunk's slot. op is
// the public entry point's name, so a nil-callback panic names the call
// the user actually made.
func (e *Engine) schedule(at Time, fn func(), op string) uint32 {
	if fn == nil {
		panic("sim: " + op + " with nil callback")
	}
	slot := e.thunks.put(fn)
	e.enqueue(at, 0, uint64(slot))
	return slot
}

// enqueue is the single enqueue path: clamp, number, trace, push.
func (e *Engine) enqueue(at Time, f Func, arg uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: obs.EventScheduled, At: int64(e.now),
			Node: -1, Peer: -1, ID: e.seq, Seq: int64(at),
			Slot: -1, Hop: -1,
		})
	}
	e.queue.push(event{at: at, seq: e.seq, arg: arg, fn: f})
}

// Timer is a cancelable scheduled callback, as a value: the engine slot
// that holds the callback and its cancel flag, and the slot's
// generation. The slot goes to another callback once the timer has
// fired, been skipped or been compacted away; the generation tells the
// two apart, so Cancel through a stale Timer is a no-op. The zero Timer
// is one that never fires.
type Timer struct {
	eng  *Engine
	slot uint32
	gen  uint32
}

// Cancel stops the timer; the callback will not run. Cancel after
// firing, or a second time, is a no-op. The queue entry is lazily
// deleted; when canceled entries come to dominate the queue the engine
// compacts them away (see Engine.compact).
func (t Timer) Cancel() {
	e := t.eng
	if e == nil {
		return
	}
	th := &e.thunks.vals[t.slot]
	if th.gen != t.gen || th.canceled {
		return
	}
	th.canceled = true
	e.noteCanceled()
}

// noteCanceled accounts a newly canceled timer and compacts the queue
// when canceled entries exceed half of it. The counter overcounts when
// an Every is canceled from its own callback (its next entry is not
// queued yet); compaction recounts from the queue itself, so drift
// only ever costs a sweep, never correctness.
func (e *Engine) noteCanceled() {
	e.canceled++
	// Sweep once canceled entries exceed half the queue. Each sweep
	// removes over half the entries, so the amortized cost per cancel
	// is O(1) even under mass cancellation. The strict inequality means
	// a queue whose canceled entries are exactly half (e.g. one of two)
	// keeps the cheap lazy-deletion path.
	if e.canceled*2 > e.queue.n {
		e.compact()
	}
}

// compact removes every canceled entry from the queue in one sweep.
// Surviving events keep their (at, seq) keys, and the pop
// order depends only on that strict total order, so seeded histories of
// the callbacks that actually run are unchanged. Compacted entries are
// never popped, so — unlike lazily skipped ones — they do not count
// toward Executed() and emit no EventFired trace record; compaction is
// triggered by deterministic queue state, so equal seeds still produce
// byte-identical traces.
func (e *Engine) compact() {
	e.queue.filter(func(ev *event) bool {
		if ev.fn == 0 && e.thunks.vals[ev.arg].canceled {
			e.thunks.release(uint32(ev.arg))
			return false
		}
		return true
	})
	e.canceled = 0
}

// After schedules fn after delay and returns a cancelable Timer. It
// allocates nothing: the cancel flag is the engine's, in fn's slot. A
// canceled timer is lazily deleted: its queue entry is skipped by the
// run loop when its time arrives rather than wrapping fn in a
// check-and-bail closure.
func (e *Engine) After(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.timer(e.schedule(e.now+delay, fn, "After"))
}

// timer returns the Timer naming slot's present occupant.
func (e *Engine) timer(slot uint32) Timer {
	return Timer{eng: e, slot: slot, gen: e.thunks.vals[slot].gen}
}

// Every schedules fn at t = start, start+interval, ... until the
// returned Timer is canceled or the engine stops. The chain keeps one
// slot, so one Timer names every tick of it.
func (e *Engine) Every(start, interval Time, fn func()) Timer {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	if start < 0 {
		start = 0
	}
	slot := e.schedule(e.now+start, fn, "Every")
	e.thunks.vals[slot].interval = interval
	return e.timer(slot)
}

// Stop halts the run loop after the current event finishes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue empties, the clock
// passes `until`, or Stop is called. It returns the virtual time at
// which it stopped. Events scheduled exactly at `until` still run.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	q := &e.queue
	for q.n > 0 && !e.stopped {
		if !q.ready(until) {
			return e.stopAt(until)
		}
		e.fire(q.pop())
	}
	if e.now < until && q.n == 0 {
		e.now = until
	}
	return e.now
}

// stopAt sets the clock to until, which is before every queued event.
// A clock set back takes the queue's base with it.
func (e *Engine) stopAt(until Time) Time {
	if until < e.now {
		e.queue.rebase(until)
	}
	e.now = until
	return until
}

// RunAll executes events until the queue is empty or Stop is called.
func (e *Engine) RunAll() Time {
	e.stopped = false
	for e.queue.n > 0 && !e.stopped {
		e.fire(e.queue.pop())
	}
	return e.now
}

// fire advances the clock to a popped event, counts and traces it, and
// runs it.
func (e *Engine) fire(next event) {
	e.now = next.at
	e.ran++
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: obs.EventFired, At: int64(next.at),
			Node: -1, Peer: -1, ID: next.seq, Slot: -1, Hop: -1,
		})
	}
	if next.fn != 0 {
		e.funcs[next.fn](next.arg)
		return
	}
	th := &e.thunks.vals[next.arg]
	fn := th.fn
	// A canceled timer that escaped compaction is still popped, traced,
	// and counted — the pre-lazy-deletion implementation ran a no-op
	// closure here, and seeded histories must not notice the difference
	// — but its callback is skipped.
	if th.canceled {
		e.thunks.release(uint32(next.arg))
		if e.canceled > 0 {
			e.canceled--
		}
		return
	}
	if th.interval == 0 {
		// The slot is free before its callback runs, so a callback that
		// schedules reuses it.
		e.thunks.release(uint32(next.arg))
		fn()
		return
	}
	// An Every's tick keeps its slot, so its Timer still names it
	// during the callback. Re-check after fn: canceling inside the
	// callback must stop the chain, not just mark the next entry dead.
	fn()
	if th = &e.thunks.vals[next.arg]; th.canceled {
		e.thunks.release(uint32(next.arg))
		return
	}
	e.enqueue(e.now+th.interval, 0, next.arg)
}
