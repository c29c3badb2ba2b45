package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestStreamSinkOverflowReconciles(t *testing.T) {
	// Concurrent writers against a deliberately tiny buffer with no
	// consumer: everything past the buffer must be counted dropped, and
	// written + dropped must reconcile with emitted exactly.
	const writers, perWriter = 8, 5000
	s := NewStreamSink(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Emit(Event{Type: MsgSent, Node: w, Seq: int64(i)})
			}
		}(w)
	}
	wg.Wait()

	var written uint64
	for {
		select {
		case <-s.C():
			written++
			continue
		default:
		}
		break
	}
	if s.Emitted() != writers*perWriter {
		t.Fatalf("emitted = %d, want %d", s.Emitted(), writers*perWriter)
	}
	if written+s.Dropped() != s.Emitted() {
		t.Fatalf("written (%d) + dropped (%d) != emitted (%d)",
			written, s.Dropped(), s.Emitted())
	}
	if s.Dropped() == 0 {
		t.Fatal("tiny buffer under load dropped nothing — overflow path untested")
	}
}

func TestStreamSinkConcurrentConsumer(t *testing.T) {
	// With a live consumer the same invariant holds: every emitted
	// event is either received or counted dropped, never both, never
	// lost.
	const writers, perWriter = 4, 10000
	s := NewStreamSink(256)
	var written atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range s.C() {
			written.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Emit(Event{Type: MsgDelivered})
			}
		}()
	}
	wg.Wait()
	close(s.ch) // emitters done; let the consumer drain and exit
	<-done
	if written.Load()+s.Dropped() != s.Emitted() {
		t.Fatalf("written (%d) + dropped (%d) != emitted (%d)",
			written.Load(), s.Dropped(), s.Emitted())
	}
}

func TestHubAttachDetach(t *testing.T) {
	h := NewHub()
	if h.Subscribers() != 0 {
		t.Fatal("fresh hub has subscribers")
	}
	h.Emit(Event{Type: MsgSent}) // no subscribers: must not panic

	c := NewCollector()
	detach := h.Attach(c)
	h.Emit(Event{Type: MsgSent})
	h.Emit(Event{Type: MsgDelivered})
	if evs := c.Events(); len(evs) != 2 || evs[0].Type != MsgSent || evs[1].Type != MsgDelivered {
		t.Fatalf("subscriber saw %+v, want one send and one delivery", evs)
	}
	detach()
	detach() // idempotent
	h.Emit(Event{Type: MsgSent})
	if c.Len() != 2 {
		t.Fatal("detached subscriber still receiving")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after detach", h.Subscribers())
	}
}

func TestHubConcurrent(t *testing.T) {
	// Emitters race attach/detach cycles; the test is that -race stays
	// quiet and a stably-attached subscriber sees every event emitted
	// strictly inside its attached window.
	h := NewHub()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Emit(Event{Type: MsgSent})
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		detach := h.Attach(NewCollector())
		detach()
	}
	detach := h.Attach(NewCollector())
	for h.Subscribers() != 1 {
		t.Fatal("attach not visible")
	}
	close(stop)
	wg.Wait()
	detach()
}

// TestCollectorConcurrent hammers Emit from several goroutines while
// snapshots run back to back; run with -race. Each snapshot must be at
// least as long as the one before it and hold no zero-value (torn)
// event, and the final snapshot holds every emit.
func TestCollectorConcurrent(t *testing.T) {
	const writers, perWriter = 4, 2000
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Emit(Event{At: int64(w*perWriter+i) + 1, Node: w})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := 0
	check := func(evs []Event) {
		if len(evs) < prev || len(evs) > writers*perWriter {
			t.Fatalf("snapshot holds %d events after one of %d (at most %d emitted)", len(evs), prev, writers*perWriter)
		}
		prev = len(evs)
		for i, e := range evs {
			if e.At == 0 {
				t.Fatalf("torn/zero event at %d of %d", i, len(evs))
			}
		}
	}
	for {
		select {
		case <-done:
			evs := c.Events()
			check(evs)
			if len(evs) != writers*perWriter || c.Len() != len(evs) {
				t.Fatalf("kept %d events (Len %d), want %d", len(evs), c.Len(), writers*perWriter)
			}
			return
		default:
			check(c.Events())
		}
	}
}

func TestCollectorConcurrentWritersReconcile(t *testing.T) {
	// Concurrent emitters while snapshots run (run with -race): every
	// emit is kept, and each writer's events stay in its order.
	const writers, perWriter = 8, 2000
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Emit(Event{Type: MsgSent, Node: w, Seq: int64(i)})
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if n := len(c.Events()); n > writers*perWriter {
			t.Fatalf("snapshot holds %d events, only %d emitted", n, writers*perWriter)
		}
	}
	wg.Wait()
	evs := c.Events()
	if len(evs) != writers*perWriter || c.Len() != len(evs) {
		t.Fatalf("kept %d events (Len %d), want %d", len(evs), c.Len(), writers*perWriter)
	}
	next := make([]int64, writers)
	for _, e := range evs {
		if e.Seq != next[e.Node] {
			t.Fatalf("writer %d: event %d arrived where %d was due", e.Node, e.Seq, next[e.Node])
		}
		next[e.Node]++
	}
}
