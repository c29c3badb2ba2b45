package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"resilientmix/internal/obs"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if e.Now() != 3*Second {
		t.Fatalf("final time = %v, want 3s", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for i := 1; i <= 5; i++ {
		at := Time(i) * Second
		e.ScheduleAt(at, func() { ran = append(ran, at) })
	}
	e.Run(3 * Second)
	if len(ran) != 3 {
		t.Fatalf("Run(3s) executed %d events, want 3 (boundary inclusive)", len(ran))
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run(10 * Second)
	if len(ran) != 5 {
		t.Fatalf("second Run executed %d total, want 5", len(ran))
	}
	if e.Now() != 10*Second {
		t.Fatalf("Now() after draining = %v, want until=10s", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var depth int
	var fire func()
	fire = func() {
		depth++
		if depth < 100 {
			e.Schedule(Millisecond, fire)
		}
	}
	e.Schedule(0, fire)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	e := NewEngine(1)
	var when Time
	e.Schedule(Second, func() {
		e.ScheduleAt(0, func() { when = e.Now() }) // in the past
	})
	e.RunAll()
	if when != Second {
		t.Fatalf("past-scheduled event ran at %v, want clamped to 1s", when)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-5*Second, func() { ran = true })
	e.RunAll()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)*Second, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 4 {
		t.Fatalf("count = %d, want 4 after Stop", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", e.Pending())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(Second, func() { fired = true })
	e.Schedule(500*Millisecond, func() { tm.Cancel() })
	e.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
	// Cancel after the queue drained must be a no-op.
	tm.Cancel()
	var zero Timer
	zero.Cancel() // must not panic
}

// TestStaleTimerCancelKeepsNewTimer: a timer's slot goes to the next
// callback once it has fired, so the handle of the old one is stale.
// Cancel through it must leave the slot's new timer armed — and
// unaccounted, so no compaction is owed to it.
func TestStaleTimerCancelKeepsNewTimer(t *testing.T) {
	e := NewEngine(1)
	old := e.After(Second, func() {})
	e.Run(2 * Second)
	fired := false
	fresh := e.After(Second, func() { fired = true })
	if fresh.slot != old.slot {
		t.Fatalf("the new timer took slot %d, not the fired one's %d", fresh.slot, old.slot)
	}
	old.Cancel()
	if e.canceled != 0 {
		t.Fatalf("a stale Cancel counted %d canceled entries", e.canceled)
	}
	e.RunAll()
	if !fired {
		t.Fatal("a stale Cancel stopped the slot's new timer")
	}
	// And the other way: a canceled timer's entry compacted away frees
	// its slot, and the next occupant is not canceled by the old flag.
	gone := e.After(Hour, func() { t.Fatal("canceled timer fired") })
	gone.Cancel() // alone in the queue: compacted at once
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after canceling the only timer", e.Pending())
	}
	fired = false
	next := e.After(Second, func() { fired = true })
	gone.Cancel()
	if next.slot != gone.slot {
		t.Fatalf("the new timer took slot %d, not the compacted one's %d", next.slot, gone.slot)
	}
	e.RunAll()
	if !fired {
		t.Fatal("a second Cancel of a compacted timer stopped its slot's new timer")
	}
}

// TestAfterCancelZeroAlloc: a timer is a value and its cancel flag the
// engine's, so once the slab and the queue have their room, arming and
// cancelling one allocates nothing — nor does firing one.
func TestAfterCancelZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(Time(i), fn)
	}
	e.RunAll()
	keep := e.After(Hour, fn) // so a lone cancel does not compact every time
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Second, fn).Cancel()
		e.After(Millisecond, fn)
		e.Run(e.Now() + 2*Second)
	})
	keep.Cancel()
	if allocs != 0 {
		t.Fatalf("After+Cancel allocated %.1f times per op, want 0", allocs)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tm Timer
	tm = e.Every(Second, 2*Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tm.Cancel()
		}
	})
	e.Run(100 * Second)
	want := []Time{Second, 3 * Second, 5 * Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewEngine(1).Every(0, 0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int64 {
		e := NewEngine(42)
		var out []int64
		e.Every(0, 10*Millisecond, func() {
			out = append(out, int64(e.RNG().Intn(1000)))
			if len(out) >= 50 {
				e.Stop()
			}
		})
		e.RunAll()
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromDuration(1500*time.Millisecond) != 1500*Millisecond {
		t.Error("FromDuration broken")
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Error("FromSeconds broken")
	}
	if (90 * Second).Seconds() != 90 {
		t.Error("Seconds broken")
	}
	if Hour != 3600*Second || Minute != 60*Second {
		t.Error("duration constants inconsistent")
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Errorf("String() = %q", s)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

// TestNilCallbackPanicNamesEntryPoint checks that each public scheduling
// entry point reports itself — not an internal helper — when handed a
// nil callback.
func TestNilCallbackPanicNamesEntryPoint(t *testing.T) {
	cases := []struct {
		want string
		call func(e *Engine)
	}{
		{"sim: Schedule with nil callback", func(e *Engine) { e.Schedule(0, nil) }},
		{"sim: ScheduleAt with nil callback", func(e *Engine) { e.ScheduleAt(0, nil) }},
		{"sim: After with nil callback", func(e *Engine) { e.After(0, nil) }},
		{"sim: Every with nil callback", func(e *Engine) { e.Every(0, Second, nil) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", tc.want)
				}
				if msg, ok := r.(string); !ok || msg != tc.want {
					t.Fatalf("panic message = %v, want %q", r, tc.want)
				}
			}()
			tc.call(NewEngine(1))
		}()
	}
}

// TestCancelCompaction checks queue hygiene: once canceled timers exceed
// half the queue, they are swept out, so Pending() shrinks immediately
// instead of waiting for every dead deadline to arrive.
func TestCancelCompaction(t *testing.T) {
	e := NewEngine(1)
	const nTimers = 100
	timers := make([]Timer, nTimers)
	for i := range timers {
		timers[i] = e.After(Time(i+1)*Hour, func() { t.Fatal("canceled timer fired") })
	}
	e.Schedule(Second, func() {})
	if got := e.Pending(); got != nTimers+1 {
		t.Fatalf("Pending() = %d, want %d", got, nTimers+1)
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	// 100 canceled of 101 queued is far past the half-queue trigger.
	// Compaction cascades as cancels keep arriving; at most one canceled
	// entry (exactly half of a 2-element queue, below the strict
	// trigger) may survive on the cheap lazy path.
	if got := e.Pending(); got > 2 {
		t.Fatalf("Pending() after mass cancel = %d, want <= 2 (compaction should have swept canceled entries)", got)
	}
	e.RunAll()
	// The one survivor (if any) pops lazily and counts as executed,
	// exactly like pre-compaction lazy deletion.
	if e.Executed() > 2 {
		t.Fatalf("Executed() = %d, want <= 2 (compacted entries never pop)", e.Executed())
	}
}

// TestCompactionPreservesHistory checks that compaction is invisible to
// the surviving callbacks: a run where many interleaved timers are
// canceled (forcing compaction) executes the exact same callback
// sequence, at the same times, as a run where those timers were never
// scheduled at all.
func TestCompactionPreservesHistory(t *testing.T) {
	type firing struct {
		label int
		at    Time
	}
	run := func(withTimers bool) []firing {
		e := NewEngine(7)
		var got []firing
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(Time(i)*100*Millisecond, func() { got = append(got, firing{i, e.Now()}) })
		}
		if withTimers {
			timers := make([]Timer, 200)
			for j := range timers {
				timers[j] = e.After(Time(j+1)*Minute, func() { t.Fatal("canceled timer fired") })
			}
			// Cancel from inside the run, mid-history, so compaction
			// happens while survivors are still pending.
			e.Schedule(250*Millisecond, func() {
				for _, tm := range timers {
					tm.Cancel()
				}
			})
		}
		e.Run(10 * Second)
		if withTimers {
			// Strip the cancel helper's own slot: it appends nothing,
			// so got is already comparable.
			_ = withTimers
		}
		return got
	}
	with, without := run(true), run(false)
	if len(with) != len(without) {
		t.Fatalf("callback counts differ: %d with canceled timers, %d without", len(with), len(without))
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("histories diverge at %d: %+v vs %+v", i, with[i], without[i])
		}
	}
}

// TestCancelAfterFireSelfHeals: canceling timers that already fired
// names slots whose callbacks are gone. It must neither touch the live
// event nor count toward compaction.
func TestCancelAfterFireSelfHeals(t *testing.T) {
	e := NewEngine(1)
	fired := make([]Timer, 64)
	for i := range fired {
		fired[i] = e.After(Time(i)*Millisecond, func() {})
	}
	e.Run(100 * Millisecond)
	live := 0
	e.Schedule(Hour, func() { live++ })
	for _, tm := range fired {
		tm.Cancel() // all already fired: stale handles
	}
	if e.canceled != 0 {
		t.Fatalf("stale cancels counted %d canceled entries", e.canceled)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (live event must survive recount)", got)
	}
	e.RunAll()
	if live != 1 {
		t.Fatalf("live event ran %d times, want 1", live)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunAll()
	if e.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7", e.Executed())
	}
}

func TestCanceledTimerCountsAsExecuted(t *testing.T) {
	// Lazy deletion must be invisible to observers: a canceled timer is
	// still popped at its scheduled time and counted by Executed(), so
	// traces and report counters match the pre-lazy-deletion engine.
	e := NewEngine(1)
	fired := false
	tm := e.After(2*Second, func() { fired = true })
	e.Schedule(Second, func() { tm.Cancel() })
	e.Schedule(3*Second, func() {})
	e.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed() = %d, want 3 (canceled event still counted)", e.Executed())
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestEveryCancelFromOutside(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	tm := e.Every(Second, Second, func() { ticks++ })
	e.Schedule(3500*Millisecond, func() { tm.Cancel() })
	e.Run(10 * Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (t=1s,2s,3s before cancel at 3.5s)", ticks)
	}
}

func TestScheduleZeroAlloc(t *testing.T) {
	// The value-based queue must not allocate per event once its chunks
	// exist: no *event box, no interface conversion.
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ { // allocate the queue's chunks
		e.Schedule(Time(i), fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(Second, fn)
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000)*Millisecond, func() {})
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func TestScheduleTypedZeroAlloc(t *testing.T) {
	// A typed event is a queue entry and nothing else: no closure, no
	// slab slot.
	e := NewEngine(1)
	var sum uint64
	add := e.Register(func(arg uint64) { sum += arg })
	for i := 0; i < 1024; i++ { // allocate the queue's chunks
		e.ScheduleTyped(Time(i), add, 1)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleTyped(Second, add, 1)
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleTyped+Run allocated %.1f times per op, want 0", allocs)
	}
	if sum != 1024+101 {
		t.Fatalf("handler saw %d, want %d", sum, 1024+101)
	}
}

func TestScheduleTypedValidation(t *testing.T) {
	e := NewEngine(1)
	for name, fn := range map[string]func(){
		"nil handler":       func() { e.Register(nil) },
		"zero Func":         func() { e.ScheduleTyped(0, 0, 0) },
		"unregistered Func": func() { e.ScheduleTyped(0, 7, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// A negative delay clamps to now, like Schedule's.
	ran := false
	e.Schedule(Second, func() {
		e.ScheduleTyped(-Second, e.Register(func(uint64) { ran = e.Now() == Second }), 0)
	})
	e.RunAll()
	if !ran {
		t.Fatal("negative-delay typed event did not run at now")
	}
}

// mixedScript drives one engine through a fixed schedule — simultaneous
// events, nested scheduling, an Every, cancelable timers canceled late
// (lazy skip) and in bulk (compaction) — and returns the order the
// numbered steps ran in with their times. With typed set, every other
// step is a typed event instead of a closure; nothing else differs.
func mixedScript(e *Engine, typed bool) (order []uint64, at []Time) {
	step := func(i uint64) {
		order = append(order, i)
		at = append(at, e.Now())
	}
	h := e.Register(step)
	n := uint64(0)
	sched := func(delay Time) {
		i := n
		n++
		if typed && i%2 == 0 {
			e.ScheduleTyped(delay, h, i)
		} else {
			e.Schedule(delay, func() { step(i) })
		}
	}
	// Eight events for one instant, alternating kinds under typed.
	for i := 0; i < 8; i++ {
		sched(Second)
	}
	// One canceled long before it is due, but alone: it stays queued,
	// pops at its time and is skipped.
	lazy := e.After(Second, func() { step(1000) })
	lazy.Cancel()
	for i := 0; i < 8; i++ {
		sched(Second)
	}
	// A burst of timers canceled from inside the run, more than half the
	// queue: compact() sweeps them while the steps below are pending.
	timers := make([]Timer, 64)
	for i := range timers {
		timers[i] = e.After(Hour, func() { step(2000) })
		sched(2 * Second)
	}
	e.Schedule(1500*Millisecond, func() {
		for _, tm := range timers {
			tm.Cancel()
		}
		// Scheduled after the sweep, for the instant the survivors share.
		for i := 0; i < 4; i++ {
			sched(500 * Millisecond)
		}
	})
	tick := e.Every(Second, Second, func() { sched(0); sched(Millisecond) })
	e.Schedule(3500*Millisecond, tick.Cancel)
	e.Run(10 * Second)
	return order, at
}

// TestTypedEventsKeepSchedulingOrder: typed and closure events are one
// queue. The mixed script runs its steps in the order and at the times
// of the closure-only script — simultaneous events in scheduling order,
// across a compaction and after canceled timers — executes the same
// number of events, and leaves the same EventScheduled/EventFired trace
// byte for byte.
func TestTypedEventsKeepSchedulingOrder(t *testing.T) {
	run := func(typed bool) ([]uint64, []Time, uint64, string) {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		e := NewEngine(1)
		e.SetTracer(tr)
		order, at := mixedScript(e, typed)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if e.thunks.Len() != e.Pending() {
			t.Fatalf("typed=%v: %d thunks held for %d queued events", typed, e.thunks.Len(), e.Pending())
		}
		if swept := e.seq - e.Executed(); swept < 60 {
			t.Fatalf("typed=%v: compaction swept %d events, want most of the 64 canceled timers", typed, swept)
		}
		return order, at, e.Executed(), buf.String()
	}
	order, at, ran, trace := run(false)
	tOrder, tAt, tRan, tTrace := run(true)
	// Steps are numbered as they are scheduled, so those of one instant
	// must come out in rising order whichever kind each one is.
	for i := 1; i < len(tOrder); i++ {
		if tAt[i] == tAt[i-1] && tOrder[i] < tOrder[i-1] {
			t.Fatalf("at %v step %d ran before step %d", tAt[i], tOrder[i-1], tOrder[i])
		}
	}
	if len(order) != 90 { // 16 + 64 + 4 scheduled outright, 2 by each of 3 ticks
		t.Fatalf("script ran %d steps, want 90", len(order))
	}
	for _, i := range order {
		if i >= 1000 {
			t.Fatalf("canceled timer ran (step %d)", i)
		}
	}
	if !reflect.DeepEqual(order, tOrder) || !reflect.DeepEqual(at, tAt) {
		t.Fatalf("mixed script diverged:\nclosures %v\n   mixed %v", order, tOrder)
	}
	if ran != tRan {
		t.Fatalf("Executed() = %d with closures, %d mixed", ran, tRan)
	}
	if trace != tTrace {
		t.Fatal("EventScheduled/EventFired traces differ between the closure-only and the mixed script")
	}
	if !strings.Contains(trace, `"event_fired"`) {
		t.Fatalf("trace has no fired events: %.200s", trace)
	}
}

func TestSlabReusesSlots(t *testing.T) {
	var s Slab[*int]
	v := new(int)
	a, b := s.Put(v), s.Put(v)
	if a == b || s.Len() != 2 {
		t.Fatalf("slots %d, %d; Len %d", a, b, s.Len())
	}
	if got := s.Take(a); got != v {
		t.Fatal("Take returned another value")
	}
	if s.vals[a] != nil {
		t.Fatal("emptied slot still references its value")
	}
	if c := s.Put(v); c != a || s.Len() != 2 {
		t.Fatalf("freed slot %d not reused: got %d, Len %d", a, c, s.Len())
	}
	allocs := testing.AllocsPerRun(100, func() { s.Take(s.Put(v)) })
	if allocs != 0 {
		t.Fatalf("steady Put+Take allocated %.1f times, want 0", allocs)
	}
}
