package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// heapQueue is the engine's event queue before the radix queue: a
// value-based binary min-heap ordered by (at, seq). It is the reference
// the radix queue is checked against.
type heapQueue []event

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *heapQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *heapQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if n > 0 {
		h.siftDown(0, last)
	}
	return top
}

// siftDown places ev at i or below, assuming both subtrees of i are
// heaps.
func (q heapQueue) siftDown(i int, ev event) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventBefore(&q[r], &q[c]) {
			c = r
		}
		if !eventBefore(&q[c], &ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// refEngine is the heap engine's queue behaviour and nothing else: its
// clock and numbering, lazy cancellation and the compaction trigger,
// and Run's bounds, as Engine had them — except that canceling an event
// already popped is a no-op, as Cancel through a stale Timer is. An
// event's arg is the script's id for it.
type refEngine struct {
	now      Time
	seq      uint64
	q        heapQueue
	ran      uint64
	canceled int
	dead     map[uint64]bool // ids canceled or popped
	stopped  bool
	fire     func(id uint64)
}

func (r *refEngine) schedule(delay Time, id uint64) {
	if delay < 0 {
		delay = 0
	}
	r.seq++
	r.q.push(event{at: r.now + delay, seq: r.seq, arg: id})
}

func (r *refEngine) cancel(id uint64) {
	if r.dead[id] {
		return
	}
	r.dead[id] = true
	r.canceled++
	if r.canceled*2 > len(r.q) {
		q := r.q[:0]
		for _, ev := range r.q {
			if !r.dead[ev.arg] {
				q = append(q, ev)
			}
		}
		r.q, r.canceled = q, 0
		for i := len(q)/2 - 1; i >= 0; i-- {
			q.siftDown(i, q[i])
		}
	}
}

func (r *refEngine) step() {
	ev := r.q.pop()
	r.now = ev.at
	r.ran++
	if !r.dead[ev.arg] {
		r.dead[ev.arg] = true
		r.fire(ev.arg)
	} else if r.canceled > 0 {
		r.canceled--
	}
}

func (r *refEngine) run(until Time) {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		if r.q[0].at > until {
			r.now = until
			return
		}
		r.step()
	}
	if r.now < until && len(r.q) == 0 {
		r.now = until
	}
}

func (r *refEngine) runAll() {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		r.step()
	}
}

// queueSide is one engine under a script: what it fired, in order, and
// the ids it handed out.
type queueSide struct {
	fired  []firing
	nextID uint64
	sched  func(delay Time, cancelable bool) uint64
	cancel func(id uint64)
	stop   func()
	now    func() Time
}

// onFire is what a fired event does, decided by its id alone so both
// engines do the same: log it, sometimes schedule a child (nested
// scheduling, often for the same instant), sometimes stop the run.
func (s *queueSide) onFire(id uint64) {
	s.fired = append(s.fired, firing{id, s.now()})
	switch {
	case id%5 == 0 && id < 1<<20:
		s.sched(Time(id*7919%4)*Millisecond, false)
	case id%7 == 3:
		s.sched(0, false)
	case id%29 == 11:
		s.stop()
	}
}

// scriptDelay reads a delay from the script: zero, a few µs, the
// 1–100 ms of a hop, 0.1–1 s, seconds, or hours.
func scriptDelay(b []byte) Time {
	v := Time(binary.LittleEndian.Uint16(b[1:]))
	switch b[0] % 6 {
	case 0:
		return 0
	case 1:
		return v % 16
	case 2:
		return Millisecond + v*Millisecond/655
	case 3:
		return 100*Millisecond + v*13*Microsecond
	case 4:
		return Second + v*Second/6553
	default:
		return Hour + v*Second
	}
}

// runQueueScript drives the engine and the heap reference through one
// script and fails at the first step where their pop sequences,
// clocks, Pending() or Executed() differ.
func runQueueScript(t *testing.T, script []byte) {
	e := NewEngine(1)
	ref := &refEngine{dead: make(map[uint64]bool)}
	var es, rs queueSide
	timers := map[uint64]Timer{}
	h := e.Register(func(id uint64) { es.onFire(id) })
	es.now, rs.now = e.Now, func() Time { return ref.now }
	es.stop, rs.stop = e.Stop, func() { ref.stopped = true }
	es.sched = func(delay Time, cancelable bool) uint64 {
		id := es.nextID
		es.nextID++
		if cancelable {
			timers[id] = e.After(delay, func() { es.onFire(id) })
		} else {
			e.ScheduleTyped(delay, h, id)
		}
		return id
	}
	rs.sched = func(delay Time, _ bool) uint64 {
		id := rs.nextID
		rs.nextID++
		ref.schedule(delay, id)
		return id
	}
	es.cancel = func(id uint64) { timers[id].Cancel() }
	rs.cancel = ref.cancel
	ref.fire = rs.onFire
	var cancelable []uint64
	checked := 0 // es.fired[:checked] matched rs.fired

	for k := 0; k+4 <= len(script); k += 4 {
		op, arg := script[k], script[k+1:k+4]
		switch op % 8 {
		case 0, 1, 2:
			es.sched(scriptDelay(arg), false)
			rs.sched(scriptDelay(arg), false)
		case 3:
			for n := 9*int(op>>3&15) + 1; n > 0; n-- {
				cancelable = append(cancelable, es.sched(scriptDelay(arg), true))
				rs.sched(scriptDelay(arg), true)
			}
		case 4:
			// Cancel one timer, or one in 16 times all of them: a mass
			// cancel compacts whatever else is queued.
			if arg[0]&0xf0 == 0 {
				for _, id := range cancelable {
					es.cancel(id)
					rs.cancel(id)
				}
			} else if len(cancelable) > 0 {
				id := cancelable[int(arg[1])%len(cancelable)]
				es.cancel(id)
				rs.cancel(id)
			}
		case 5:
			// A burst for one instant.
			for n := 9*int(op>>3&15) + 1; n > 0; n-- {
				es.sched(scriptDelay(arg), false)
				rs.sched(scriptDelay(arg), false)
			}
		case 6:
			// Run to a bound; one in eight is at or before now.
			until := e.Now() + scriptDelay(arg)
			if arg[0]&0x38 == 0 {
				until = e.Now() - scriptDelay(arg)
			}
			e.Run(until)
			ref.run(until)
		case 7:
			e.RunAll()
			ref.runAll()
		}
		if e.Now() != ref.now || e.Pending() != len(ref.q) || e.Executed() != ref.ran ||
			len(es.fired) != len(rs.fired) || !reflect.DeepEqual(es.fired[checked:], rs.fired[checked:]) {
			t.Fatalf("op %d (%d): now %v/%v, pending %d/%d, executed %d/%d, fired %d/%d entries\nfired %v\n  ref %v",
				k/4, op%8, e.Now(), ref.now, e.Pending(), len(ref.q), e.Executed(), ref.ran,
				len(es.fired), len(rs.fired), tail(es.fired), tail(rs.fired))
		}
		checked = len(es.fired)
	}
	for e.Pending() > 0 || len(ref.q) > 0 { // a callback may stop a drain
		e.RunAll()
		ref.runAll()
	}
	if !reflect.DeepEqual(es.fired, rs.fired) || e.Executed() != ref.ran {
		t.Fatalf("drain: executed %d/%d, fired %v\n  ref %v", e.Executed(), ref.ran, tail(es.fired), tail(rs.fired))
	}
}

// firing is one event run: its id and the time it ran at.
type firing struct {
	id uint64
	at Time
}

func tail(f []firing) []firing {
	if len(f) > 16 {
		return f[len(f)-16:]
	}
	return f
}

// TestEventQueueMatchesHeap runs random scripts — bursts for one
// instant, zero delays, hop-scale and far timers, cancellation and the
// compaction it triggers mid-run, Run stopping short of the next event
// and a schedule landing before it, the clock set back — through the
// radix queue and the binary heap it replaced, and requires the same
// pops at the same times, and the same Executed() and Pending().
func TestEventQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, 4*(50+rng.Intn(400)))
		rng.Read(script)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runQueueScript(t, script) })
	}
}

// TestRunStopsShortThenEarlierPush pins the case the radix queue's Run
// must get right: Run stops before the next event without moving the
// queue's base to it, so a push after it that lands earlier pops first.
func TestRunStopsShortThenEarlierPush(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(Second, func() { got = append(got, 2) })
	e.Run(100 * Millisecond)
	e.Schedule(10*Millisecond, func() { got = append(got, 1) })
	e.RunAll()
	if !reflect.DeepEqual(got, []int{1, 2}) || e.Now() != Second {
		t.Fatalf("ran %v, now %v; want [1 2] at 1s", got, e.Now())
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 6, 2, 9, 0, 0, 5, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{3, 5, 0, 1, 3, 5, 9, 9, 4, 0, 0, 0, 6, 0, 0, 0, 2, 4, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{5, 15, 3, 4, 6, 8, 200, 1, 0, 1, 3, 0, 5, 3, 0, 0, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runQueueScript(t, script)
	})
}

// queueDelays draws n delays from sim_paper's measured mix: 69 % at
// 10–100 ms (hops), 24 % at 0.1–1 s, 2 % at 1–10 ms, 5 % at 1 s or
// more (timers).
func queueDelays(n int) []Time {
	rng := rand.New(rand.NewSource(1))
	d := make([]Time, n)
	for i := range d {
		switch p := rng.Intn(100); {
		case p < 69:
			d[i] = 10*Millisecond + Time(rng.Int63n(int64(90*Millisecond)))
		case p < 93:
			d[i] = 100*Millisecond + Time(rng.Int63n(int64(900*Millisecond)))
		case p < 95:
			d[i] = Millisecond + Time(rng.Int63n(int64(9*Millisecond)))
		default:
			d[i] = Second + Time(rng.Int63n(int64(30*Second)))
		}
	}
	return d
}

// BenchmarkEventQueue prices one pop and one push with 4 032 events
// pending — sim_paper's steady queue — for the radix queue and the
// binary heap it replaced.
func BenchmarkEventQueue(b *testing.B) {
	const pending = 4032
	delays := queueDelays(1 << 16)
	type queue interface {
		push(event)
		pop() event
	}
	for _, c := range []struct {
		name string
		q    queue
	}{{"radix", &eventQueue{}}, {"heap", &heapQueue{}}} {
		b.Run(c.name, func(b *testing.B) {
			q, seq := c.q, uint64(0)
			for ; seq < pending; seq++ {
				q.push(event{at: delays[seq], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				q.push(event{at: ev.at + delays[seq&(1<<16-1)], seq: seq})
			}
		})
	}
}
