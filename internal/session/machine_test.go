package session_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"resilientmix/internal/erasure"
	"resilientmix/internal/faultinject"
	"resilientmix/internal/netsim"
	"resilientmix/internal/session"
	"resilientmix/internal/sessiontest"
	"resilientmix/internal/sim"
)

// The tests below are the session-level scenarios that used to run on
// loopback sockets in internal/livenet (tens of seconds of wall-clock
// timeouts), here on the machine under a virtual clock. One clock unit
// is a microsecond, the engine's.
const (
	ms  = 1000
	sec = 1000 * ms
)

// fleet is the usual test deployment: initiator 0, four 2-relay paths
// over relays 1..8, spare relays up to the responder, one-millisecond
// links.
type fleet struct{ *sessiontest.Driver }

var fourPaths = [][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}

func newFleet(t *testing.T, nodes int, lists [][]netsim.NodeID, cfg session.Config, opts sessiontest.Options) *fleet {
	t.Helper()
	responder := netsim.NodeID(nodes - 1)
	cfg.K = len(lists)
	if opts.ConstructTimeout == 0 {
		opts.ConstructTimeout = 300 * ms
	}
	f := &fleet{sessiontest.NewDriver(nodes, ms, 1, 0, responder, cfg, opts)}
	// Fresh relays first, relays of condemned slots last — the order the
	// live driver's biased choice produces — lowest ID first within each.
	f.Choose = func(slot int, exclude []netsim.NodeID) ([]netsim.NodeID, bool) {
		skip := map[netsim.NodeID]bool{0: true, responder: true}
		for _, id := range exclude {
			skip[id] = true
		}
		suspect := make(map[netsim.NodeID]bool)
		for i := 0; i < cfg.K; i++ {
			if !f.M.SlotAlive(i) {
				for _, r := range f.M.Relays(i) {
					suspect[r] = true
				}
			}
		}
		var fresh, fallback []netsim.NodeID
		for id := netsim.NodeID(0); int(id) < nodes; id++ {
			switch {
			case skip[id]:
			case suspect[id]:
				fallback = append(fallback, id)
			default:
				fresh = append(fresh, id)
			}
		}
		pick := append(fresh, fallback...)
		if want := len(lists[slot]); len(pick) >= want {
			return pick[:want], true
		}
		return nil, false
	}
	f.Establish(lists)
	f.runFor(100 * ms)
	f.Start()
	return f
}

// send sends one message and fails the test if the machine refuses it.
func (f *fleet) send(t *testing.T) uint64 {
	t.Helper()
	mid, err := f.Send([]byte("a message"))
	if err != nil {
		t.Fatal(err)
	}
	return mid
}

func (f *fleet) runFor(d sim.Time) { f.Eng.Run(f.Eng.Now() + d) }

// apply schedules a fault schedule on the fleet, its times counted
// from now.
func (f *fleet) apply(t *testing.T, s faultinject.Schedule) {
	t.Helper()
	shifted := append(faultinject.Schedule(nil), s...)
	for i := range shifted {
		shifted[i].AtMS += int64(f.Eng.Now() / sim.Millisecond)
	}
	if _, err := faultinject.ApplySim(f.Eng, f.Net, shifted, nil); err != nil {
		t.Fatal(err)
	}
}

func (f *fleet) delivered(mid uint64) bool { return f.Verdicts[mid] == [2]int{1, 0} }

func repairConfig() (session.Config, sessiontest.Options) {
	return session.Config{M: 2, N: 4, AckTimeout: 1500 * ms, MaxRetransmits: 5, MaxInflight: 64},
		sessiontest.Options{ProbeInterval: 300 * ms}
}

// TestRepairSurvivesFaults: under each fault kind the live backend
// injects, the session detects the dead path by probe or ack timeout,
// rebuilds it through fresh relays and keeps delivering with no loss.
func TestRepairSurvivesFaults(t *testing.T) {
	cases := []struct {
		name  string
		fault faultinject.Event
	}{
		{"crash", faultinject.Event{Kind: faultinject.Crash, Target: 2, Peer: -1}},
		{"partition", faultinject.Event{Kind: faultinject.Partition, Target: 0, Peer: 3}},
		// Beyond the ack timeout: indistinguishable from dead to §4.5.
		{"slow-link", faultinject.Event{Kind: faultinject.Latency, Target: 5, Peer: -1, Value: 4000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opts := repairConfig()
			f := newFleet(t, 12, fourPaths, cfg, opts)
			before := f.send(t)
			f.runFor(100 * ms)
			f.apply(t, faultinject.Schedule{tc.fault})
			during := f.send(t)
			f.runFor(5 * sec)
			if !f.delivered(before) || !f.delivered(during) {
				t.Fatalf("verdicts before/during the fault: %v / %v", f.Verdicts[before], f.Verdicts[during])
			}
			broken := f.Counts.Broken[session.AckTimeout] + f.Counts.Broken[session.ProbeTimeout]
			if broken != 1 || f.Counts.Repaired != 1 {
				t.Fatalf("%d paths condemned, %d repaired, want 1 and 1", broken, f.Counts.Repaired)
			}
			if f.M.Alive() != 4 || f.M.Degraded() {
				t.Fatalf("%d paths alive after repair", f.M.Alive())
			}
			after := f.send(t)
			f.runFor(sec)
			if !f.delivered(after) || f.Counts.Lost != 0 {
				t.Fatalf("after repair: verdict %v, %d lost", f.Verdicts[after], f.Counts.Lost)
			}
			if f.Counts.Reconstructed != 3 {
				t.Fatalf("responder rebuilt %d messages, want 3", f.Counts.Reconstructed)
			}
		})
	}
}

// TestToleratesPathFailure: without repair, k(1-1/r) dead paths are
// tolerated, their slots are condemned at the ack timeout, and the
// session keeps delivering on the survivors.
func TestToleratesPathFailure(t *testing.T) {
	f := newFleet(t, 10, fourPaths, session.Config{M: 2, N: 4, AckTimeout: 2 * sec}, sessiontest.Options{})
	f.Net.SetUp(2, false)
	f.Net.SetUp(4, false)
	first := f.send(t)
	f.runFor(sec)
	if !f.delivered(first) || f.M.Alive() != 4 {
		t.Fatalf("before the ack timeout: verdict %v, %d alive", f.Verdicts[first], f.M.Alive())
	}
	f.runFor(2 * sec)
	if f.M.Alive() != 2 || f.Counts.Broken[session.AckTimeout] != 2 {
		t.Fatalf("%d alive, %d condemned after two failures", f.M.Alive(), f.Counts.Broken[session.AckTimeout])
	}
	second := f.send(t)
	f.runFor(3 * sec)
	if !f.delivered(second) || f.Counts.SegmentsSent != 4+2 {
		t.Fatalf("on the survivors: verdict %v, %d segments sent", f.Verdicts[second], f.Counts.SegmentsSent)
	}
	if f.M.Armed() != 0 {
		t.Fatalf("%d deadlines armed with nothing in flight", f.M.Armed())
	}
}

// TestRetransmitDeliversWithoutRepair: m = n, so every segment must
// arrive; the one lost to a dead path is completed by retransmitting
// it over the survivor.
func TestRetransmitDeliversWithoutRepair(t *testing.T) {
	f := newFleet(t, 8, [][]netsim.NodeID{{1, 2}, {3, 4}},
		session.Config{M: 2, N: 2, AckTimeout: sec, MaxRetransmits: 5}, sessiontest.Options{})
	f.Net.SetUp(2, false)
	mid := f.send(t)
	f.runFor(3 * sec)
	if !f.delivered(mid) || f.Counts.Retransmits != 1 || f.Counts.SegmentsSent != 3 {
		t.Fatalf("verdict %v after %d retransmit rounds and %d segments", f.Verdicts[mid], f.Counts.Retransmits, f.Counts.SegmentsSent)
	}
}

// TestRetransmitBudget: with nothing acking, a message gets exactly
// MaxRetransmits more rounds and then resolves as lost, once.
func TestRetransmitBudget(t *testing.T) {
	f := newFleet(t, 8, [][]netsim.NodeID{{1, 2}, {3, 4}},
		session.Config{M: 1, N: 2, AckTimeout: sec, MaxRetransmits: 2}, sessiontest.Options{})
	f.Net.SetUp(7, false) // the responder
	mid := f.send(t)
	f.runFor(10 * sec)
	if f.Verdicts[mid] != [2]int{0, 1} || f.Counts.Retransmits != 2 || f.M.Inflight() != 0 || f.M.Armed() != 0 {
		t.Fatalf("verdict %v, %d retransmits, %d in flight, %d armed", f.Verdicts[mid], f.Counts.Retransmits, f.M.Inflight(), f.M.Armed())
	}
}

// TestDegradedShedsCover: cover flows at full width, is shed while the
// session is degraded or its queue half full, and real traffic is not.
func TestDegradedShedsCover(t *testing.T) {
	f := newFleet(t, 10, fourPaths, session.Config{M: 2, N: 4, AckTimeout: sec, MaxInflight: 4},
		sessiontest.Options{CoverInterval: 100 * ms})
	f.runFor(sec)
	if f.Counts.CoverSent == 0 || f.Counts.CoverShed != 0 {
		t.Fatalf("healthy: %d cover sent, %d shed", f.Counts.CoverSent, f.Counts.CoverShed)
	}
	// Half the queue full of messages nobody acks: shed.
	f.Net.SetUp(9, false)
	f.send(t)
	f.send(t)
	sent := f.Counts.CoverSent
	f.runFor(500 * ms)
	if f.Counts.CoverSent != sent || f.Counts.CoverShed == 0 {
		t.Fatalf("queue half full: cover sent %d → %d, shed %d", sent, f.Counts.CoverSent, f.Counts.CoverShed)
	}
	// The deadline condemns every path: degraded, cover still shed,
	// while a real message is still taken.
	f.runFor(sec)
	if !f.M.Degraded() || f.M.Alive() != 0 {
		t.Fatalf("%d alive, degraded=%v after nothing acked", f.M.Alive(), f.M.Degraded())
	}
	shed := f.Counts.CoverShed
	f.send(t)
	f.runFor(500 * ms)
	if f.Counts.CoverSent != sent || f.Counts.CoverShed == shed {
		t.Fatal("degraded session did not shed its cover traffic")
	}
}

// TestBoundedInflight: Send refuses work past MaxInflight instead of
// buffering without limit, and takes it again once verdicts free room.
func TestBoundedInflight(t *testing.T) {
	f := newFleet(t, 6, [][]netsim.NodeID{{1, 2}}, session.Config{M: 1, N: 1, AckTimeout: 30 * sec, MaxInflight: 3}, sessiontest.Options{})
	f.Net.SetUp(1, false) // sends vanish: nothing resolves
	for i := 0; i < 3; i++ {
		f.send(t)
	}
	if _, err := f.Send([]byte("overflow")); !errors.Is(err, session.ErrFull) {
		t.Fatalf("send beyond MaxInflight: %v", err)
	}
	if f.Counts.Rejected != 1 || f.Counts.MaxInflight != 3 {
		t.Fatalf("%d rejected, %d in flight at most", f.Counts.Rejected, f.Counts.MaxInflight)
	}
	f.runFor(31 * sec)
	if f.Counts.Lost != 3 || f.M.Inflight() != 0 {
		t.Fatalf("%d lost, %d in flight after the deadline", f.Counts.Lost, f.M.Inflight())
	}
	f.send(t)
}

// TestTeardownDisarms is the regression for timers outliving Teardown:
// the old live session's probe timers kept firing afterwards, condemned
// the paths of a session that no longer existed and left the node's
// degraded gauge stuck at 1. 2×2 session, a responder that acks
// nothing, probes outstanding at Teardown: afterwards the machine
// awaits no deadline, every timer still scheduled fires as a no-op, and
// nothing is condemned.
func TestTeardownDisarms(t *testing.T) {
	f := newFleet(t, 8, [][]netsim.NodeID{{1, 2}, {3, 4}},
		session.Config{M: 1, N: 2, AckTimeout: 300 * ms, MaxRetransmits: 5}, sessiontest.Options{ProbeInterval: 20 * ms})
	f.Net.SetUp(7, false)
	f.send(t)
	f.runFor(60 * ms)
	if f.M.Armed() == 0 {
		t.Fatal("no round outstanding at teardown — the test lost its teeth")
	}
	f.Teardown()
	if f.M.Armed() != 0 || f.M.Degraded() || f.M.Alive() != 0 {
		t.Fatalf("after teardown: %d armed, degraded=%v, %d alive", f.M.Armed(), f.M.Degraded(), f.M.Alive())
	}
	before := f.Counts
	f.runFor(2 * sec)
	if f.Counts.LateDeadlines == 0 {
		t.Fatal("no timer fired after teardown")
	}
	before.LateDeadlines = f.Counts.LateDeadlines
	if f.Counts != before {
		t.Fatalf("a torn-down session kept acting:\nbefore %+v\nafter  %+v", before, f.Counts)
	}
	if _, err := f.Send([]byte("x")); !errors.Is(err, session.ErrTornDown) {
		t.Fatalf("send after teardown: %v", err)
	}
}

// TestOnDemandConstruction: with repair on, a message sent while its
// slot is down rides a replacement path's construction (§4.2) — no
// waiting for the next probe tick.
func TestOnDemandConstruction(t *testing.T) {
	f := newFleet(t, 8, [][]netsim.NodeID{{1, 2}, {3, 4}},
		session.Config{M: 2, N: 2, AckTimeout: sec}, sessiontest.Options{ProbeInterval: time1h})
	f.Net.SetUp(2, false)
	f.send(t) // its deadline condemns slot 0; the replacement is built at once
	f.runFor(1100 * ms)
	if f.Counts.Repaired != 1 || f.M.Alive() != 2 {
		t.Fatalf("%d repaired, %d alive", f.Counts.Repaired, f.M.Alive())
	}
	// Down again, and the only relays left to rebuild through include
	// the one that is still dead: that construction times out, and with
	// no probe tick due the slot stays down, nothing outstanding.
	f.Net.SetUp(f.M.Relays(0)[0], false)
	f.send(t)
	f.runFor(1500 * ms)
	if f.Counts.Failed != 1 || f.M.Alive() != 1 {
		t.Fatalf("%d constructions failed, %d alive", f.Counts.Failed, f.M.Alive())
	}
	f.Net.SetUp(2, true)
	builds := f.Counts.Builds
	mid := f.send(t)
	if f.Counts.Builds != builds+1 || f.Counts.SegmentsSent != 2+2+2 {
		t.Fatalf("no on-demand construction: %d builds, %d segments", f.Counts.Builds-builds, f.Counts.SegmentsSent)
	}
	f.runFor(sec)
	if !f.delivered(mid) || f.M.Alive() != 2 {
		t.Fatalf("verdict %v, %d alive", f.Verdicts[mid], f.M.Alive())
	}
}

const time1h = 3600 * sec

// checkForgets fails the test unless the machine has forgotten every
// data message in sent exactly once and nothing else — no probe round —
// and no message before its verdict.
func checkForgets(t *testing.T, f *fleet, sent map[uint64]bool) {
	t.Helper()
	for mid, n := range f.Forgotten {
		if !sent[mid] || n != 1 {
			t.Fatalf("round set %d (a message sent: %v) forgotten %d times", mid, sent[mid], n)
		}
	}
	if len(f.Forgotten) != len(sent) || f.Counts.EarlyForgets != 0 {
		t.Fatalf("%d of %d messages forgotten, %d of them before their verdict", len(f.Forgotten), len(sent), f.Counts.EarlyForgets)
	}
}

// bareMachine is a 4-slot, m = 2 of n = 4 machine with every path up and
// the coded segments of one message, for the tests that feed it inputs
// by hand and read its outputs one by one.
func bareMachine(t *testing.T, maxRetransmits int) (*session.Machine, []erasure.Segment) {
	t.Helper()
	code, err := erasure.New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := code.Split([]byte("a message"))
	if err != nil {
		t.Fatal(err)
	}
	m := session.New(session.Config{K: 4, M: 2, N: 4, Responder: 9, AckTimeout: sec, MaxRetransmits: maxRetransmits})
	for i := 0; i < 4; i++ {
		m.PathUp(i, []netsim.NodeID{netsim.NodeID(i + 1)})
	}
	return m, segs
}

// kinds lists the kinds of outs, for failure messages and comparisons.
func kinds(outs []session.Output) []session.Kind {
	ks := make([]session.Kind, len(outs))
	for i, o := range outs {
		ks[i] = o.Kind
	}
	return ks
}

// forgets counts the Forget outputs among outs.
func forgets(outs []session.Output) (n int) {
	for _, o := range outs {
		if o.Kind == session.Forget {
			n++
		}
	}
	return n
}

// TestForgetOncePerRecord: the machine hands a data message's segments
// back exactly once. A delivered message's Forget is the output right
// after its Resolved, in the same Ack, and comes never again — not at
// its deadline, not at a deadline after Teardown; a lost message's is
// right after its Resolved at its last deadline; a record torn down
// unresolved gets its Forget at its deadline; a probe round gets none.
func TestForgetOncePerRecord(t *testing.T) {
	m, segs := bareMachine(t, 1)
	send := func(mid uint64) {
		t.Helper()
		if outs, err := m.Send(nil, 0, mid, 9, segs, nil); err != nil || forgets(outs) != 0 {
			t.Fatalf("Send(%d): %v, outputs %v", mid, err, kinds(outs))
		}
	}
	deliver := func(mid uint64) {
		t.Helper()
		if outs := m.Ack(nil, mid, 0); forgets(outs) != 0 {
			t.Fatalf("first ack of %d: outputs %v", mid, kinds(outs))
		}
		outs := m.Ack(nil, mid, 1)
		want := []session.Kind{session.Acked, session.Resolved, session.Forget}
		if !slices.Equal(kinds(outs), want) || !outs[1].Delivered || outs[2].MID != mid {
			t.Fatalf("the m-th ack of %d: outputs %v (%+v), want %v", mid, kinds(outs), outs, want)
		}
		if outs := m.Ack(nil, mid, 2); forgets(outs) != 0 {
			t.Fatalf("an ack of %d after its verdict: outputs %v", mid, kinds(outs))
		}
	}

	send(1)
	deliver(1)
	if outs := m.Deadline(nil, sec, 1); forgets(outs) != 0 {
		t.Fatalf("the deadline of a delivered message: outputs %v", kinds(outs))
	}

	send(2) // nothing acked: a retransmit round, then lost
	if outs := m.Deadline(nil, sec, 2); forgets(outs) != 0 || !slices.Contains(kinds(outs), session.Retransmit) {
		t.Fatalf("the first deadline of an unacked message: outputs %v", kinds(outs))
	}
	outs := m.Deadline(nil, 2*sec, 2)
	if n := len(outs); n < 2 || outs[n-2].Kind != session.Resolved || outs[n-2].Delivered || outs[n-1].Kind != session.Forget || forgets(outs) != 1 {
		t.Fatalf("the last deadline of a lost message: outputs %v", kinds(outs))
	}
	if outs := m.Deadline(nil, 3*sec, 2); len(outs) != 0 {
		t.Fatalf("a deadline of a deleted record: outputs %v", kinds(outs))
	}

	// Two more records across Teardown: one delivered before it, one torn
	// down unresolved; and a probe round, on a machine with paths again.
	m, segs = bareMachine(t, 1)
	send(3)
	deliver(3)
	send(4)
	if outs := m.ProbeRound(nil, 0, 5); forgets(outs) != 0 {
		t.Fatalf("a probe round: outputs %v", kinds(outs))
	}
	if outs := m.Deadline(nil, sec, 5); forgets(outs) != 0 {
		t.Fatalf("a probe round's deadline: outputs %v", kinds(outs))
	}
	m.Teardown()
	if outs := m.Deadline(nil, sec, 3); len(outs) != 0 {
		t.Fatalf("after Teardown, the deadline of a delivered message: outputs %v", kinds(outs))
	}
	outs = m.Deadline(nil, sec, 4)
	if len(outs) != 1 || outs[0].Kind != session.Forget || outs[0].MID != 4 {
		t.Fatalf("after Teardown, the deadline of an unresolved message: outputs %v, want its Forget", kinds(outs))
	}
	if outs := m.Deadline(nil, 2*sec, 4); len(outs) != 0 {
		t.Fatalf("a second deadline of a torn-down record: outputs %v", kinds(outs))
	}
}

// TestResolvedDeadlineCondemnsUnacked: releasing a message's segments at
// its verdict keeps its ledger. Slots 0 and 1 acknowledge and deliver
// it; the deadline still condemns slots 2 and 3, whose segments never
// were, and only those.
func TestResolvedDeadlineCondemnsUnacked(t *testing.T) {
	m, segs := bareMachine(t, 0)
	if _, err := m.Send(nil, 0, 1, 9, segs, nil); err != nil {
		t.Fatal(err)
	}
	m.Ack(nil, 1, 0)
	if outs := m.Ack(nil, 1, 1); forgets(outs) != 1 {
		t.Fatalf("the m-th ack: outputs %v, want the segments released", kinds(outs))
	}
	var broken []int
	for _, o := range m.Deadline(nil, sec, 1) {
		if o.Kind == session.Broken && o.Reason == session.AckTimeout {
			broken = append(broken, o.Slot)
		}
	}
	if !slices.Equal(broken, []int{2, 3}) || m.Alive() != 2 || m.Armed() != 0 {
		t.Fatalf("condemned slots %v, %d alive, %d armed; want [2 3], 2, 0", broken, m.Alive(), m.Armed())
	}
}

// TestAckFitsItsScratch: the Ack that resolves a message emits three
// outputs, and AckScratch of stack holds them — no spill to the heap.
func TestAckFitsItsScratch(t *testing.T) {
	const runs = 100
	m, segs := bareMachine(t, 0)
	for mid := uint64(1); mid <= runs+1; mid++ {
		if _, err := m.Send(nil, 0, mid, 9, segs, nil); err != nil {
			t.Fatal(err)
		}
		m.Ack(nil, mid, 0)
	}
	var mid uint64
	resolved := 0
	allocs := testing.AllocsPerRun(runs, func() {
		mid++
		var buf [session.AckScratch]session.Output
		if outs := m.Ack(buf[:0], mid, 1); len(outs) == 3 && outs[2].Kind == session.Forget {
			resolved++
		}
	})
	if resolved != runs+1 || allocs != 0 {
		t.Fatalf("%d of %d Acks resolved their message, %v allocations each; want all, 0", resolved, runs+1, allocs)
	}
}

// TestStormInvariants drives the session through generated fault
// storms of rising severity and checks what must hold whatever
// happens: every accepted Send resolves exactly once and never both
// ways, its record is forgotten exactly once and after that, the
// responder rebuilds no message twice, the in-flight bound holds, full
// width returns once the faults have reverted, and nothing is armed or
// acts after Teardown.
func TestStormInvariants(t *testing.T) {
	for _, events := range []int{4, 16, 48, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%d-faults/seed-%d", events, seed), func(t *testing.T) {
				cfg, opts := repairConfig()
				cfg.MaxInflight = 8
				f := newFleet(t, 14, fourPaths, cfg, opts)
				storm, err := faultinject.Generate(seed, faultinject.GenSpec{
					Nodes: 14, Events: events, SpanMS: 20_000, MaxDurMS: 4_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				f.apply(t, storm)
				accepted := make(map[uint64]bool)
				for end := f.Eng.Now() + 20*sec; f.Eng.Now() < end; f.runFor(40 * ms) {
					if mid, err := f.Send([]byte("through the storm")); err == nil {
						accepted[mid] = true
					} else if !errors.Is(err, session.ErrFull) {
						t.Fatal(err)
					}
				}
				// Every fault has reverted by 24 s; allow the retransmit
				// budget and a few probe rounds to settle.
				f.runFor(20 * sec)
				for mid := range accepted {
					if v := f.Verdicts[mid]; v[0]+v[1] != 1 {
						t.Fatalf("message %d resolved %d times delivered, %d times lost", mid, v[0], v[1])
					}
				}
				if len(f.Verdicts) != len(accepted) {
					t.Fatalf("%d verdicts for %d accepted messages", len(f.Verdicts), len(accepted))
				}
				for mid, n := range f.Rebuilt {
					if n != 1 {
						t.Fatalf("responder rebuilt message %d %d times", mid, n)
					}
				}
				if f.Counts.Delivered > f.Counts.Reconstructed {
					t.Fatalf("%d verdicts say delivered, responder rebuilt %d", f.Counts.Delivered, f.Counts.Reconstructed)
				}
				if f.Counts.MaxInflight > cfg.MaxInflight || f.M.Inflight() != 0 {
					t.Fatalf("in flight: %d at most (bound %d), %d at rest", f.Counts.MaxInflight, cfg.MaxInflight, f.M.Inflight())
				}
				if f.M.Alive() != 4 {
					t.Fatalf("%d of 4 paths alive after the storm passed (%d condemned, %d repaired, %d failed)",
						f.M.Alive(), f.Counts.Broken[session.AckTimeout]+f.Counts.Broken[session.ProbeTimeout], f.Counts.Repaired, f.Counts.Failed)
				}
				checkForgets(t, f, accepted)
				f.Teardown()
				before := f.Counts
				f.runFor(10 * sec)
				before.LateDeadlines = f.Counts.LateDeadlines
				if f.M.Armed() != 0 || f.Counts != before || len(f.Forgotten) != len(accepted) {
					t.Fatalf("after teardown: %d armed, %d records forgotten, counts %+v → %+v", f.M.Armed(), len(f.Forgotten), before, f.Counts)
				}
			})
		}
	}
}

// TestMachineSteadyStateAllocs: once its free list and map have grown
// to the round sets alive at once, the machine sends, acknowledges,
// resolves, probes and forgets without allocating — a forgotten
// record, with its ledger's and its segment headers' capacity, goes to
// the next Send or ProbeRound.
func TestMachineSteadyStateAllocs(t *testing.T) {
	m, segs := bareMachine(t, 0)
	var now int64
	var mid uint64
	delivered, probed := 0, 0
	cycle := func() {
		var buf [session.Scratch]session.Output
		now += sec
		mid++
		if _, err := m.Send(buf[:0], now, mid, 9, segs, nil); err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 4; i++ {
			if outs := m.Ack(buf[:0], mid, i); len(outs) == 3 && outs[1].Delivered {
				delivered++
			}
		}
		mid++
		m.ProbeRound(buf[:0], now, mid)
		for i := int32(0); i < 3; i++ {
			if outs := m.Ack(buf[:0], mid, i); len(outs) == 1 && outs[0].OfProbe {
				probed++
			}
		}
		// The previous cycle's deadlines: one round set of each kind stays
		// armed across the cycle. Slot 3 never acknowledges the probe, and
		// its deadline condemns it; the rebuild brings it back.
		m.Deadline(buf[:0], now, mid-3)
		outs := m.Deadline(buf[:0], now, mid-2)
		if len(outs) == 1 && outs[0].Kind == session.Broken {
			m.PathUp(3, nil)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, cycle)
	if n := runs + 1 + 8; allocs != 0 || delivered != n || probed != 3*n || m.Armed() != 2 {
		t.Fatalf("%v allocations a cycle; %d of %d delivered, %d of %d probes acked, %d armed; want 0, all, all, 2",
			allocs, delivered, n, probed, 3*n, m.Armed())
	}
}

// FuzzMachine drives one machine — 4 slots, m = 2 of n = 4, two
// retransmit rounds, at most four in flight, repair on or off — with a
// byte-driven sequence of Send, Ack, Deadline, ProbeRound, PathBuilt,
// PathFailed, Abandon, Replace and Teardown inputs, keeping its own
// model of every round set's ledger, and checks after every step what
// TestStormInvariants checks after a storm: every accepted Send
// resolves at most once and never both ways, a data message's Forget
// comes once, never for a probe round and never before its verdict
// unless it was torn down, the in-flight bound holds, and nothing but a
// Forget comes after Teardown. Beyond that, the ledger is exact: an Ack
// yields Acked — and the m-th a delivered verdict — exactly when the
// model has that index unacknowledged since the round set began, so an
// ack bit, count or round left on a recycled record shows. And a
// retransmission carries the bytes Send was given, though the
// descriptor slice Send read is overwritten once it returns. At the end
// every live round set's deadlines fire until all have their verdicts.
//
// One step is two bytes: the input (low nibble) and the clock's advance
// in AckTimeout/4 units (high nibble); then its argument.
func FuzzMachine(f *testing.F) {
	const (
		opSend = iota
		opAck
		opDeadline
		opProbe
		opBuilt
		opFailed
		opAbandon
		opReplace
		opTeardown
		nOps
	)
	// A step's argument picks a round set begun (low nibble, modulo their
	// number) and an index (high nibble, less one).
	//
	// A message delivered, forgotten at its deadline, and a new one in
	// its record whose acks must all count again.
	f.Add(true, []byte{opSend, 0, opAck, 0x10, opAck, 0x20, opDeadline | 0x40, 0,
		opSend, 0, opAck, 0x11, opAck, 0x21, opDeadline | 0x40, 1})
	// Probe rounds and data messages sharing records, slots lost and
	// rebuilt, a message retransmitted to its last round.
	f.Add(true, []byte{opProbe, 0, opAck, 0x10, opDeadline | 0x40, 0, opBuilt, 0, opSend, 0, opDeadline | 0x40, 1,
		opDeadline | 0x40, 1, opDeadline | 0x40, 1, opSend, 0, opAck, 0x12, opAck, 0x22, opDeadline | 0x40, 2})
	// The in-flight bound, and Teardown with messages unresolved.
	f.Add(false, []byte{opSend, 0, opSend, 0, opSend, 0, opSend, 0, opSend, 0, opAck, 0x31, opTeardown, 0,
		opAck, 0x32, opDeadline | 0x40, 3, opDeadline | 0x40, 2, opSend, 0})
	f.Add(true, []byte{opReplace, 2, opAbandon, 0, opProbe, 0, opFailed, 0, opReplace, 1, opBuilt, 0, opSend, 0})

	type round struct {
		probe, resolved, forgotten bool
		acked                      map[int32]bool
		rounds                     int
	}
	f.Fuzz(func(t *testing.T, repair bool, script []byte) {
		const maxRetransmits, maxInflight, ackTimeout = 2, 4, 4 * sec
		code, err := erasure.New(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		m := session.New(session.Config{K: 4, M: 2, N: 4, Responder: 9, AckTimeout: ackTimeout,
			MaxRetransmits: maxRetransmits, MaxInflight: maxInflight})
		if repair {
			m.EnableRepair()
		}
		for i := 0; i < 4; i++ {
			m.PathUp(i, []netsim.NodeID{netsim.NodeID(i + 1)})
		}
		var (
			now      int64
			mids     []uint64 // every round set begun, in order
			sets     = make(map[uint64]*round)
			data     = make(map[uint64][][]byte) // a data message's segment bytes, by index
			verdicts = make(map[uint64]int)
			forgot   = make(map[uint64]int)
			builds   []session.Output // Build outputs not yet concluded
			torn     bool
			descs    []erasure.Segment // Send's scratch, overwritten after every Send
		)
		inflight := func() (n int) {
			for _, r := range sets {
				if !r.probe && !r.resolved {
					n++
				}
			}
			return n
		}
		// check takes in the outputs of one input; acks are the Acked and
		// delivered Resolved the model expects of it.
		check := func(in string, outs []session.Output, acks []session.Output) {
			t.Helper()
			var got []session.Output
			for _, o := range outs {
				r := sets[o.MID]
				if torn && o.Kind != session.Forget {
					t.Fatalf("%s after Teardown: output %+v", in, o)
				}
				switch o.Kind {
				case session.Acked:
					got = append(got, o)
				case session.Resolved:
					if r == nil || r.probe || r.resolved {
						t.Fatalf("%s: Resolved %d, a round set %+v", in, o.MID, r)
					}
					r.resolved = true
					verdicts[o.MID]++
					if o.Delivered {
						got = append(got, o)
					} else if r.rounds < maxRetransmits {
						t.Fatalf("%s: %d lost after %d retransmissions", in, o.MID, r.rounds)
					}
				case session.Forget:
					if r == nil || r.probe || !(r.resolved || torn) {
						t.Fatalf("%s: Forget %d, a round set %+v", in, o.MID, r)
					}
					forgot[o.MID]++
					if forgot[o.MID] != 1 {
						t.Fatalf("%s: %d forgotten twice", in, o.MID)
					}
				case session.Transmit:
					if segs := data[o.MID]; o.Index < 0 || int(o.Index) >= len(segs) || !bytes.Equal(o.Data, segs[o.Index]) {
						t.Fatalf("%s: segment %d of %d transmitted as %x", in, o.Index, o.MID, o.Data)
					}
				case session.Build:
					builds = append(builds, o)
				}
			}
			if !slices.EqualFunc(got, acks, func(a, b session.Output) bool {
				return a.Kind == b.Kind && a.MID == b.MID && a.Index == b.Index && a.OfProbe == b.OfProbe && a.Delivered == b.Delivered
			}) {
				t.Fatalf("%s: acks and verdicts %+v, want %+v", in, got, acks)
			}
			live := 0
			for _, r := range sets {
				if !r.forgotten {
					live++
				}
			}
			if n := inflight(); !torn && (m.Inflight() != n || n > maxInflight || m.Armed() != live) {
				t.Fatalf("%s: %d in flight (model %d, bound %d), %d armed (model %d)", in, m.Inflight(), n, maxInflight, m.Armed(), live)
			}
		}
		// deadline fires round set mid's deadline, in the model too.
		deadline := func(mid uint64) {
			var buf [session.Scratch]session.Output
			r := sets[mid]
			outs := m.Deadline(buf[:0], now, mid)
			if r == nil || r.forgotten {
				if len(outs) != 0 {
					t.Fatalf("the deadline of a forgotten round set %d: %v", mid, kinds(outs))
				}
				return
			}
			retransmit := !torn && !r.probe && !r.resolved && r.rounds < maxRetransmits
			if retransmit {
				r.rounds++
			}
			r.forgotten = !retransmit
			check(fmt.Sprintf("Deadline(%d)", mid), outs, nil)
			if retransmit != slices.Contains(kinds(outs), session.Retransmit) {
				t.Fatalf("Deadline(%d): outputs %v, retransmission expected %v", mid, kinds(outs), retransmit)
			}
		}
		pick := func(b byte) uint64 {
			if len(mids) == 0 {
				return 1 << 40 // no round set: an unknown ID
			}
			return mids[int(b)%len(mids)]
		}
		for next := uint64(1); len(script) >= 2; script = script[2:] {
			op, arg := int(script[0]&0xf)%nOps, script[1]
			now += int64(script[0]>>4) * ackTimeout / 4
			var buf [session.Scratch]session.Output
			switch op {
			case opSend:
				mid := next
				next++
				msg := []byte(fmt.Sprintf("message %d", mid))
				split, err := code.SplitInto(descs[:0], msg, nil)
				if err != nil {
					t.Fatal(err)
				}
				descs = split
				var segs [][]byte
				for _, s := range split {
					segs = append(segs, s.Data)
				}
				data[mid] = segs
				outs, err := m.Send(buf[:0], now, mid, 9, split, nil)
				for i := range descs {
					descs[i] = erasure.Segment{Index: 3 - i, Data: []byte("scratch")}
				}
				full := inflight() >= maxInflight
				switch {
				case torn && !errors.Is(err, session.ErrTornDown), !torn && full && !errors.Is(err, session.ErrFull):
					t.Fatalf("Send on a machine torn down %v, full %v: %v", torn, full, err)
				case err == nil:
					if torn || full {
						t.Fatalf("Send accepted on a machine torn down %v, full %v", torn, full)
					}
					mids = append(mids, mid)
					sets[mid] = &round{acked: make(map[int32]bool)}
				}
				check(fmt.Sprintf("Send(%d)", mid), outs, nil)
			case opAck:
				mid, idx := pick(arg), int32(arg>>4)-1 // indices -1..14
				var want []session.Output
				if r := sets[mid]; r != nil && !r.forgotten && !torn && idx >= 0 && !r.acked[idx] {
					r.acked[idx] = true
					want = append(want, session.Output{Kind: session.Acked, MID: mid, Index: idx, OfProbe: r.probe})
					if !r.probe && !r.resolved && len(r.acked) >= 2 {
						want = append(want, session.Output{Kind: session.Resolved, MID: mid, Delivered: true})
					}
				}
				var abuf [session.AckScratch]session.Output
				check(fmt.Sprintf("Ack(%d, %d)", mid, idx), m.Ack(abuf[:0], mid, idx), want)
			case opDeadline:
				deadline(pick(arg))
			case opProbe:
				mid := next
				next++
				alive := m.Alive()
				outs := m.ProbeRound(buf[:0], now, mid)
				if !torn && alive > 0 {
					mids = append(mids, mid)
					sets[mid] = &round{probe: true, acked: make(map[int32]bool)}
				}
				check(fmt.Sprintf("ProbeRound(%d)", mid), outs, nil)
			case opBuilt, opFailed, opAbandon:
				if len(builds) == 0 {
					continue
				}
				i := int(arg) % len(builds)
				b := builds[i]
				builds = append(builds[:i], builds[i+1:]...)
				switch op {
				case opBuilt:
					check("PathBuilt", m.PathBuilt(buf[:0], b.Slot, []netsim.NodeID{netsim.NodeID(20 + arg)}), nil)
				case opFailed:
					m.PathFailed(b.Slot)
				default:
					m.Abandon(b)
				}
			case opReplace:
				check("Replace", m.Replace(buf[:0], int(arg)%4), nil)
			case opTeardown:
				m.Teardown()
				torn = true
			}
		}
		for _, mid := range mids {
			for i := 0; i <= maxRetransmits; i++ {
				now += ackTimeout
				deadline(mid)
			}
		}
		for _, mid := range mids {
			r := sets[mid]
			if !r.forgotten {
				t.Fatalf("round set %d outlived its last deadline", mid)
			}
			if !r.probe && (verdicts[mid] != 1 && !torn || forgot[mid] != 1) {
				t.Fatalf("message %d: %d verdicts, forgotten %d times", mid, verdicts[mid], forgot[mid])
			}
		}
		if m.Armed() != 0 || m.Inflight() != 0 {
			t.Fatalf("at the end: %d armed, %d in flight", m.Armed(), m.Inflight())
		}
	})
}
