// Regression tests for the observability layer's two core promises:
// equal seeds produce byte-identical JSONL traces, and the trace stream
// reconciles exactly with the metrics registry the run report is built
// from. A third test checks that installing a tracer never perturbs the
// simulation itself (tracing draws no engine randomness).
package resilientmix_test

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	rm "resilientmix"

	"resilientmix/internal/obs"
)

// tracedScenario runs a fixed churn-plus-messaging scenario: a 64-node
// Pareto-churned network warmed up one hour, one SimEra(4,2) session
// between the pinned endpoints, then ten minutes of 1 KB messages every
// 10 s. It exercises every simulator-side event type: engine scheduling,
// node transitions, sends, drops (loss plus churn), deliveries, path
// construction and death, segments and reconstruction.
func tracedScenario(t testing.TB, seed int64, loss float64, tr rm.Tracer, reg *rm.MetricsRegistry) rm.SessionStats {
	t.Helper()
	lifetime, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        64,
		Seed:     seed,
		Lifetime: lifetime,
		Pinned:   []rm.NodeID{0, 1},
		LossRate: loss,
		Tracer:   tr,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		t.Fatal(err)
	}
	net.Run(rm.Hour)

	sess, err := net.NewSession(0, 1, rm.Params{
		Protocol:             rm.SimEra,
		K:                    4,
		R:                    2,
		MaxEstablishAttempts: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	sess.OnEstablished = func(o bool, _ int) { ok = o }
	sess.Establish()
	net.Run(net.Eng.Now() + 5*rm.Minute)
	if !ok {
		t.Fatal("establishment failed")
	}
	end := net.Eng.Now() + 10*rm.Minute
	msg := make([]byte, 1024)
	var tick func()
	tick = func() {
		if net.Eng.Now() >= end {
			return
		}
		if sess.Established() {
			sess.SendMessage(msg)
		}
		net.Eng.Schedule(10*rm.Second, tick)
	}
	net.Eng.Schedule(0, tick)
	net.Run(end + rm.Minute)
	return sess.Stats()
}

// traceBytes captures the full JSONL trace of one scenario run.
func traceBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := rm.NewTraceWriter(&buf)
	tracedScenario(t, seed, 0.02, tr, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism is the regression guard for reproducible traces:
// two runs with the same seed must emit byte-identical JSONL, and a
// different seed must not.
func TestTraceDeterminism(t *testing.T) {
	a := traceBytes(t, 42)
	b := traceBytes(t, 42)
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if sha256.Sum256(a) != sha256.Sum256(b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	c := traceBytes(t, 43)
	if sha256.Sum256(a) == sha256.Sum256(c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTracingDoesNotPerturbSimulation checks the nil fast path and an
// installed tracer yield the exact same protocol outcome: emitting
// events must never consume engine randomness or reorder events.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	bare := tracedScenario(t, 7, 0.01, nil, nil)
	traced := tracedScenario(t, 7, 0.01, rm.NoopTracer{}, rm.NewMetricsRegistry())
	if bare != traced {
		t.Fatalf("tracing changed the simulation:\n  nil tracer: %+v\n  noop tracer: %+v", bare, traced)
	}
}

// TestTraceTaggedDataPlane checks the data-plane tagging contract:
// segment sends carry their path-slot, tagged wire events carry
// slot and hop depth (untagged background traffic stays slot/hop -1),
// and the offline analyzer reconstructs the tagged streams with zero
// integrity errors while reconciling exactly with the registry.
func TestTraceTaggedDataPlane(t *testing.T) {
	col := rm.NewTraceCollector()
	reg := rm.NewMetricsRegistry()
	tracedScenario(t, 21, 0.03, col, reg)

	var segSends, taggedWire, untaggedWire int
	maxHop := -1
	for _, e := range col.Events() {
		switch e.Type {
		case obs.SegmentSent:
			segSends++
			if e.ID == 0 || e.Slot < 0 || e.Hop != -1 {
				t.Fatalf("segment_sent missing tag fields: %+v", e)
			}
		case obs.MsgSent, obs.MsgDelivered, obs.MsgDropped:
			if e.ID != 0 && e.Slot >= 0 && e.Hop >= 0 {
				taggedWire++
				if e.Hop > maxHop {
					maxHop = e.Hop
				}
			} else {
				untaggedWire++
				if e.Slot != -1 || e.Hop != -1 {
					t.Fatalf("untagged wire event with slot/hop set: %+v", e)
				}
			}
		}
	}
	if segSends == 0 || taggedWire == 0 {
		t.Fatalf("no tagged data-plane traffic (%d segment sends, %d tagged wire events)", segSends, taggedWire)
	}
	if untaggedWire == 0 {
		t.Fatal("no untagged background traffic; construction/ack traffic should stay untagged")
	}
	if maxHop < 1 {
		t.Fatalf("tagged hop depth never advanced past %d; relays are not stamping Tag.Next()", maxHop)
	}

	res := rm.AnalyzeTrace(col.Events())
	if res.Summary.IntegrityErrors != 0 {
		t.Fatalf("%d integrity errors:\n%v", res.Summary.IntegrityErrors, res.Summary.IntegrityDetails)
	}
	snap := reg.Snapshot()
	rep := &rm.RunReport{Metrics: &snap}
	if problems := rm.ReconcileAnalysis(res, rep); len(problems) != 0 {
		t.Fatalf("analysis does not reconcile with the registry:\n%v", problems)
	}
}

// TestTraceReconcilesWithRegistry checks the -report contract: the
// drop-reason counters the report is built from must match the
// MsgDropped events in the trace exactly, reason by reason, and the
// send/delivery counters must match their event counts.
func TestTraceReconcilesWithRegistry(t *testing.T) {
	var buf bytes.Buffer
	tr := rm.NewTraceWriter(&buf)
	reg := rm.NewMetricsRegistry()
	tracedScenario(t, 13, 0.05, tr, reg)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := rm.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != tr.Events() {
		t.Fatalf("parsed %d events, writer recorded %d", len(events), tr.Events())
	}
	byType := make(map[obs.Type]uint64)
	dropped := make(map[obs.Reason]uint64)
	for _, e := range events {
		byType[e.Type]++
		if e.Type == obs.MsgDropped {
			dropped[e.Reason]++
		}
	}

	drops := reg.CountersWithPrefix("net.dropped.")
	var registryTotal uint64
	for name, want := range drops {
		registryTotal += want
		reason := strings.TrimPrefix(name, "net.dropped.")
		var got uint64
		for _, r := range obs.Reasons() {
			if r.String() == reason {
				got = dropped[r]
			}
		}
		if got != want {
			t.Errorf("drop reason %q: trace has %d events, registry counted %d", reason, got, want)
		}
	}
	if traceTotal := byType[obs.MsgDropped]; traceTotal != registryTotal {
		t.Errorf("total drops: trace has %d, registry counted %d", traceTotal, registryTotal)
	}
	if registryTotal == 0 {
		t.Error("scenario produced no drops; reconciliation test is vacuous")
	}
	if got, want := byType[obs.MsgSent], reg.Counter("net.sent").Value(); got != want {
		t.Errorf("sends: trace has %d, registry counted %d", got, want)
	}
	if got, want := byType[obs.MsgDelivered], reg.Counter("net.delivered").Value(); got != want {
		t.Errorf("deliveries: trace has %d, registry counted %d", got, want)
	}
}
