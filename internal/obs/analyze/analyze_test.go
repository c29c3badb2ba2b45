package analyze

import (
	"math"
	"testing"

	"resilientmix/internal/core"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// --- synthetic traces -------------------------------------------------

// sent/delivered/dropped build tagged wire events; times in µs.
func sent(at int64, from, to int, mid uint64, seg, slot, hop int) obs.Event {
	return obs.Event{Type: obs.MsgSent, At: at, Node: from, Peer: to,
		ID: mid, Seq: int64(seg), Slot: slot, Hop: hop, Size: 100}
}

func delivered(at int64, from, to int, mid uint64, seg, slot, hop int) obs.Event {
	return obs.Event{Type: obs.MsgDelivered, At: at, Node: to, Peer: from,
		ID: mid, Seq: int64(seg), Slot: slot, Hop: hop, Size: 100}
}

func dropped(at int64, from, to int, mid uint64, seg, slot, hop int, why obs.Reason) obs.Event {
	return obs.Event{Type: obs.MsgDropped, At: at, Node: from, Peer: to,
		ID: mid, Seq: int64(seg), Slot: slot, Hop: hop, Size: 100, Reason: why}
}

func segSent(at int64, initiator, responder int, mid uint64, seg, slot int) obs.Event {
	return obs.Event{Type: obs.SegmentSent, At: at, Node: initiator, Peer: responder,
		ID: mid, Seq: int64(seg), Slot: slot, Hop: -1, Size: 100}
}

func reconstructed(at int64, receiver int, mid uint64) obs.Event {
	return obs.Event{Type: obs.SegmentReconstructed, At: at, Node: receiver,
		ID: mid, Slot: -1, Hop: -1}
}

// deliveredChain is a 3-hop delivered journey 0 ->2 ->5 ->1 for mid 7:
// launch at t=1000, reconstruction at t=7000.
func deliveredChain() []obs.Event {
	return []obs.Event{
		segSent(1000, 0, 1, 7, 0, 0),
		sent(1000, 0, 2, 7, 0, 0, 0),
		delivered(3000, 0, 2, 7, 0, 0, 0),
		sent(3500, 2, 5, 7, 0, 0, 1),
		delivered(5000, 2, 5, 7, 0, 0, 1),
		sent(5200, 5, 1, 7, 0, 0, 2),
		delivered(7000, 5, 1, 7, 0, 0, 2),
		reconstructed(7000, 1, 7),
	}
}

func TestAnalyzeDeliveredChain(t *testing.T) {
	res := FromEvents(deliveredChain())
	s := res.Summary
	if s.IntegrityErrors != 0 {
		t.Fatalf("integrity errors on a clean chain: %v", s.IntegrityDetails)
	}
	if s.Messages != 1 || s.Delivered != 1 || s.Failed != 0 || s.MessagesInFlight != 0 {
		t.Fatalf("message accounting: %+v", s)
	}
	if s.Journeys != 1 || s.JourneysDelivered != 1 {
		t.Fatalf("journey accounting: %+v", s)
	}
	if s.Latency == nil || s.Latency.Count != 1 {
		t.Fatalf("latency block: %+v", s.Latency)
	}
	// e2e = 7000-1000 = 6ms; propagation = 2+1.5+1.8 = 5.3ms;
	// queueing = 0.5+0.2 = 0.7ms; retry = 0.
	lat := res.Latencies[0]
	if lat.E2EMs != 6 || lat.PropagationMs != 5.3 || lat.QueueingMs != 0.7 || lat.RetryMs != 0 {
		t.Fatalf("attribution: %+v", lat)
	}
	if got := lat.RetryMs + lat.PropagationMs + lat.QueueingMs; math.Abs(got-lat.E2EMs) > 1e-9 {
		t.Fatalf("components %.9f do not sum to e2e %.9f", got, lat.E2EMs)
	}
	if lat.Hops != 3 {
		t.Fatalf("hop count: %d", lat.Hops)
	}
	if s.Anonymity == nil || s.Anonymity.Messages != 1 {
		t.Fatalf("anonymity block: %+v", s.Anonymity)
	}
	// Only one candidate sender in the window: fully linked.
	if s.Anonymity.MeanSetSize != 1 || s.Anonymity.LinkageRate != 1 {
		t.Fatalf("anonymity: %+v", s.Anonymity)
	}
}

func TestAnalyzeAnonymitySet(t *testing.T) {
	// Two extra first-hop senders inside message 7's delivery window.
	ev := deliveredChain()
	ev = append(ev,
		sent(2000, 8, 9, 21, 0, 0, 0),
		sent(2500, 9, 3, 22, 0, 0, 0),
	)
	res := FromEvents(ev)
	a := res.Summary.Anonymity
	if a == nil || a.Messages != 1 {
		t.Fatalf("anonymity block: %+v", a)
	}
	if a.MeanSetSize != 3 || a.MinSetSize != 3 || a.LinkageRate != 0 {
		t.Fatalf("anonymity set: %+v", a)
	}
	// Uniform 3-way distribution: log2(3) bits.
	if math.Abs(a.MeanEntropyBits-math.Log2(3)) > 1e-9 {
		t.Fatalf("entropy %.6f, want %.6f", a.MeanEntropyBits, math.Log2(3))
	}
}

func TestAnalyzeWireDrop(t *testing.T) {
	ev := []obs.Event{
		segSent(1000, 0, 1, 9, 0, 2),
		sent(1000, 0, 3, 9, 0, 2, 0),
		dropped(2000, 0, 3, 9, 0, 2, 0, obs.ReasonLinkLoss),
		// A later delivered single-hop journey sets the grace window.
		segSent(3000, 4, 5, 11, 0, 0),
		sent(3000, 4, 5, 11, 0, 0, 0),
		delivered(3500, 4, 5, 11, 0, 0, 0),
		reconstructed(3500, 5, 11),
		// Push trace end far past the drop.
		{Type: obs.NodeUp, At: 500000, Node: 6, Slot: -1, Hop: -1},
	}
	res := FromEvents(ev)
	s := res.Summary
	if s.IntegrityErrors != 0 {
		t.Fatalf("integrity errors: %v", s.IntegrityDetails)
	}
	if s.JourneysDropped != 1 {
		t.Fatalf("want 1 dropped journey: %+v", s)
	}
	if s.DropReasons[obs.ReasonLinkLoss.String()] != 1 {
		t.Fatalf("drop reasons: %v", s.DropReasons)
	}
	if s.Failed != 1 {
		t.Fatalf("message 9 should have failed: %+v", s)
	}
}

func TestAnalyzeRelayDrop(t *testing.T) {
	ev := []obs.Event{
		segSent(1000, 0, 1, 9, 1, 0),
		sent(1000, 0, 3, 9, 1, 0, 0),
		delivered(2000, 0, 3, 9, 1, 0, 0),
		{Type: obs.RelayDropped, At: 2000, Node: 3, Peer: -1,
			ID: 9, Seq: 1, Slot: 0, Hop: 1, Reason: obs.ReasonNoState},
	}
	res := FromEvents(ev)
	s := res.Summary
	if s.IntegrityErrors != 0 {
		t.Fatalf("integrity errors: %v", s.IntegrityDetails)
	}
	if s.JourneysStalled != 1 {
		t.Fatalf("want 1 stalled journey: %+v", s)
	}
	if s.DropReasons[obs.ReasonNoState.String()] != 1 {
		t.Fatalf("drop reasons: %v", s.DropReasons)
	}
}

func TestAnalyzeSenderDownWithoutSend(t *testing.T) {
	// netsim suppresses sends from down nodes before the wire: the drop
	// event is the only record and must not be an orphan.
	ev := []obs.Event{
		segSent(1000, 0, 1, 5, 0, 1),
		dropped(1000, 0, 3, 5, 0, 1, 0, obs.ReasonSenderDown),
	}
	res := FromEvents(ev)
	s := res.Summary
	if s.IntegrityErrors != 0 {
		t.Fatalf("integrity errors: %v", s.IntegrityDetails)
	}
	if s.JourneysDropped != 1 || s.DropReasons[obs.ReasonSenderDown.String()] != 1 {
		t.Fatalf("sender-down journey: %+v", s)
	}
}

func TestAnalyzeIntegrityOrphanDelivery(t *testing.T) {
	ev := []obs.Event{
		delivered(2000, 0, 3, 9, 0, 0, 0),
	}
	res := FromEvents(ev)
	if res.Summary.IntegrityErrors == 0 {
		t.Fatal("orphan delivery not flagged")
	}
}

func TestAnalyzeIntegrityBrokenHopChain(t *testing.T) {
	// Hop 2 send with no delivered hop 1 underneath it.
	ev := []obs.Event{
		sent(1000, 0, 3, 9, 0, 0, 0),
		delivered(2000, 0, 3, 9, 0, 0, 0),
		sent(3000, 4, 5, 9, 0, 0, 2),
	}
	res := FromEvents(ev)
	if res.Summary.IntegrityErrors == 0 {
		t.Fatal("broken hop chain not flagged")
	}
}

func TestAnalyzeIntegrityDanglingChain(t *testing.T) {
	// Chain ends delivered at a relay long before trace end with no
	// continuation and no relay_dropped: a missing emit site.
	ev := []obs.Event{
		segSent(1000, 0, 1, 9, 0, 0),
		sent(1000, 0, 3, 9, 0, 0, 0),
		delivered(1500, 0, 3, 9, 0, 0, 0),
		{Type: obs.NodeUp, At: 900000, Node: 6, Slot: -1, Hop: -1},
	}
	res := FromEvents(ev)
	if res.Summary.IntegrityErrors == 0 {
		t.Fatal("dangling chain not flagged")
	}
	if res.Summary.JourneysStalled != 1 {
		t.Fatalf("dangling chain should classify stalled: %+v", res.Summary)
	}
}

func TestAnalyzeInFlightAtTraceEnd(t *testing.T) {
	// An unresolved send at the very end of the trace is in flight, not
	// an integrity error.
	ev := []obs.Event{
		segSent(1000, 0, 1, 9, 0, 0),
		sent(1000, 0, 3, 9, 0, 0, 0),
		delivered(2000, 0, 3, 9, 0, 0, 0),
		sent(2000, 3, 5, 9, 0, 0, 1),
	}
	res := FromEvents(ev)
	s := res.Summary
	if s.IntegrityErrors != 0 {
		t.Fatalf("integrity errors: %v", s.IntegrityDetails)
	}
	if s.JourneysInFlight != 1 || s.MessagesInFlight != 1 {
		t.Fatalf("in-flight accounting: %+v", s)
	}
}

func TestFormatStream(t *testing.T) {
	res := FromEvents(deliveredChain())
	if len(res.Streams) != 1 {
		t.Fatalf("streams: %d", len(res.Streams))
	}
	out := FormatStream(res.Streams[0])
	for _, want := range []string{"message 7", "delivered", "hop 0", "hop 2", "arrived"} {
		if !containsStr(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSampleQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := sampleQuantile(sorted, c.q); got != c.want {
			t.Errorf("q=%.2f: got %v want %v", c.q, got, c.want)
		}
	}
	if sampleQuantile(nil, 0.5) != 0 {
		t.Error("empty sample should yield 0")
	}
}

// --- end-to-end property test ----------------------------------------

// run256 drives a 256-node Pareto-churned network with loss: four
// concurrent SimEra(4,2) sessions between pinned endpoint pairs send
// segmented messages for ten minutes, re-establishing when churn kills
// a session. Concurrent initiators make the passive observer's
// anonymity sets non-trivial, and churn plus loss exercises every drop
// path. Returns the full trace and the metrics registry.
func run256(t *testing.T, seed int64) (*obs.Collector, *obs.Registry) {
	t.Helper()
	lifetime, err := stats.ParetoWithMedian(1, sim.Hour.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]netsim.NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	col := obs.NewCollector()
	reg := obs.NewRegistry()
	w, err := core.NewWorld(core.WorldConfig{
		N:        256,
		Seed:     seed,
		Lifetime: lifetime,
		Pinned:   []netsim.NodeID{0, 1, 2, 3, 4, 5, 6, 7},
		LossRate: 0.02,
		Tracer:   col,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartChurn(); err != nil {
		t.Fatal(err)
	}
	w.Run(sim.Hour)

	params := core.Params{
		Protocol:             core.SimEra,
		K:                    4,
		R:                    2,
		MaxEstablishAttempts: 200,
	}
	end := w.Eng.Now() + 15*sim.Minute
	msg := make([]byte, 1024)
	for i, pair := range pairs {
		pair := pair
		var sess *core.Session
		establish := func() {
			s, err := w.NewSession(pair[0], pair[1], params)
			if err != nil {
				t.Fatal(err)
			}
			s.Establish()
			sess = s
		}
		establish()
		var tick func()
		tick = func() {
			if w.Eng.Now() >= end {
				return
			}
			if sess.Established() {
				sess.SendMessage(msg)
			} else {
				establish()
			}
			w.Eng.Schedule(5*sim.Second, tick)
		}
		// Stagger the senders so first-hop sends interleave.
		w.Eng.Schedule(sim.Time(i)*sim.Second, tick)
	}
	// Generous drain so nothing is still on the wire at trace end.
	w.Run(end + 5*sim.Minute)
	return col, reg
}

// TestAnalyze256NodeScenario is the analyzer's end-to-end property
// test: on a real churned 256-node run, every tagged send resolves to
// exactly one delivery or reasoned drop (zero integrity errors, zero
// in-flight after drain), per-stream latency components sum to the
// end-to-end latency, and the reconstruction reconciles exactly with
// the registry the run report is built from.
func TestAnalyze256NodeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node scenario skipped in -short mode")
	}
	col, reg := run256(t, 1207)
	res := FromEvents(col.Events())
	s := res.Summary

	if s.Messages == 0 || s.Journeys == 0 {
		t.Fatalf("scenario produced no tagged traffic: %+v", s)
	}
	if s.IntegrityErrors != 0 {
		t.Fatalf("%d integrity errors:\n%v", s.IntegrityErrors, s.IntegrityDetails)
	}
	// After a 5-minute drain every journey has terminated: delivered at
	// the responder, dropped on the wire with a reason, or consumed by a
	// relay — nothing unresolved.
	if s.JourneysInFlight != 0 || s.MessagesInFlight != 0 {
		t.Fatalf("journeys still in flight after drain: %+v", s)
	}
	if got := s.JourneysDelivered + s.JourneysDropped + s.JourneysStalled; got != s.Journeys {
		t.Fatalf("journey outcomes %d do not cover all %d journeys", got, s.Journeys)
	}
	var reasoned uint64
	for _, n := range s.DropReasons {
		reasoned += n
	}
	if want := uint64(s.JourneysDropped + s.JourneysStalled); reasoned < want {
		t.Fatalf("only %d of %d failed journeys carry a reason", reasoned, want)
	}

	// The churny, lossy scenario must actually exercise failures, or the
	// classification assertions are vacuous.
	if s.JourneysDropped == 0 {
		t.Error("no dropped journeys; property test is vacuous")
	}
	if s.Delivered == 0 {
		t.Error("no delivered messages; latency/anonymity are vacuous")
	}

	// Latency attribution: additive decomposition, exact per stream.
	if s.Latency == nil || s.Latency.Count != s.Delivered {
		t.Fatalf("latency covers %v of %d delivered", s.Latency, s.Delivered)
	}
	for _, row := range res.Latencies {
		sum := row.RetryMs + row.PropagationMs + row.QueueingMs
		if math.Abs(sum-row.E2EMs) > 1e-6 {
			t.Fatalf("message %d: components %.6f != e2e %.6f", row.MID, sum, row.E2EMs)
		}
		if row.RetryMs < 0 || row.PropagationMs < 0 || row.QueueingMs < 0 {
			t.Fatalf("message %d: negative component: %+v", row.MID, row)
		}
	}
	if s.Latency.P50Ms > s.Latency.P90Ms || s.Latency.P90Ms > s.Latency.P99Ms {
		t.Fatalf("quantiles not monotone: %+v", s.Latency)
	}

	// Anonymity block must be present and sane.
	a := s.Anonymity
	if a == nil || a.Messages != s.Delivered {
		t.Fatalf("anonymity covers %v of %d delivered", a, s.Delivered)
	}
	if a.MinSetSize < 1 || a.MeanSetSize < 1 || a.LinkageRate < 0 || a.LinkageRate > 1 {
		t.Fatalf("anonymity out of range: %+v", a)
	}

	// Registry reconciliation: both views come from the same emit sites,
	// so they agree exactly.
	snap := reg.Snapshot()
	rep := &obs.Report{Metrics: &snap}
	if problems := Reconcile(res, rep); len(problems) != 0 {
		t.Fatalf("reconciliation failed:\n%v", problems)
	}
	if got, want := uint64(s.Journeys), reg.Counter("session.segments_sent").Value(); got != want {
		t.Fatalf("journeys %d != session.segments_sent %d", got, want)
	}
	if got, want := uint64(s.Delivered), reg.Counter("recv.delivered").Value(); got != want {
		t.Fatalf("delivered %d != recv.delivered %d", got, want)
	}
}

// TestAnalyzeDeterminism: equal seeds produce identical analysis
// summaries (the analyzer is a pure function of the trace).
func TestAnalyzeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated 256-node scenario skipped in -short mode")
	}
	colA, _ := run256(t, 99)
	colB, _ := run256(t, 99)
	a := FromEvents(colA.Events()).Summary
	b := FromEvents(colB.Events()).Summary
	if a.Messages != b.Messages || a.Journeys != b.Journeys ||
		a.Delivered != b.Delivered || a.JourneysDropped != b.JourneysDropped ||
		a.IntegrityErrors != b.IntegrityErrors {
		t.Fatalf("same seed, different analysis:\n%+v\n%+v", a, b)
	}
}
