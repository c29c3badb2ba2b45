package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// sampleEvent returns a fully populated event of the given type so
// round trips exercise every field.
func sampleEvent(t Type, i int) Event {
	return Event{
		Type:   t,
		At:     int64(1_000_000*i + 7),
		Node:   i % 5,
		Peer:   (i + 1) % 5,
		ID:     uint64(0xdeadbeef00 + i),
		Seq:    int64(i * 3),
		Slot:   i % 4,
		Hop:    i % 3,
		Size:   128 + i,
		Reason: Reason(i % int(numReasons)),
	}
}

func TestJSONLRoundTripEveryType(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var want []Event
	for i, typ := range Types() {
		e := sampleEvent(typ, i)
		j.Emit(e)
		want = append(want, e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != uint64(len(want)) {
		t.Fatalf("writer counted %d events, want %d", j.Events(), len(want))
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJSONLDeterministicEncoding(t *testing.T) {
	e := sampleEvent(MsgDropped, 3)
	a := AppendJSON(nil, e)
	b := AppendJSON(nil, e)
	if !bytes.Equal(a, b) {
		t.Fatalf("equal events encoded differently:\n%s\n%s", a, b)
	}
	// Negative node ids (the "no node" sentinel) must survive.
	e2 := Event{Type: EventFired, Node: -1, Peer: -1, ID: 42}
	back, err := ParseEvent(AppendJSON(nil, e2))
	if err != nil {
		t.Fatal(err)
	}
	if back != e2 {
		t.Fatalf("sentinel round trip: got %+v want %+v", back, e2)
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	if _, err := ParseEvent([]byte(`{"t":"nope","reason":"none"}`)); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := ParseEvent([]byte(`{"t":"msg_sent","reason":"nope"}`)); err == nil {
		t.Error("unknown reason accepted")
	}
	if _, err := ParseEvent([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	// A sample exactly on a bound belongs to that bound's bucket
	// (x <= le), the convention documented on Histogram.
	h.Observe(1)     // bucket le=1
	h.Observe(1.001) // bucket le=10
	h.Observe(10)    // bucket le=10
	h.Observe(100)   // bucket le=100
	h.Observe(100.5) // overflow
	h.Observe(0)     // bucket le=1
	s := h.snapshot()
	wantCounts := []uint64{2, 2, 1}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket le=%g: count %d, want %d", b.LE, b.Count, wantCounts[i])
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow %d, want 1", s.Overflow)
	}
	if s.Count != 6 {
		t.Errorf("count %d, want 6", s.Count)
	}
	if s.Min != 0 || s.Max != 100.5 {
		t.Errorf("min/max %g/%g, want 0/100.5", s.Min, s.Max)
	}
	if got := h.Mean(); got != s.Sum/6 {
		t.Errorf("mean %g, want %g", got, s.Sum/6)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Add(3)
	if c2 := r.Counter("a"); c2 != c1 || c2.Value() != 3 {
		t.Error("counter not shared by name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if r.Gauge("g").Value() != 2.5 {
		t.Error("gauge not shared by name")
	}
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1.5)
	if r.Histogram("h", []float64{9}).Count() != 1 {
		t.Error("histogram not shared by name")
	}
	drops := r.Counter("net.dropped.link_loss")
	drops.Add(7)
	r.Counter("net.sent").Add(100)
	byReason := r.CountersWithPrefix("net.dropped.")
	if len(byReason) != 1 || byReason["link_loss"] != 7 {
		t.Errorf("prefix extraction: %v", byReason)
	}
}

// TestReportSnapshotStability: marshaling the same registry state twice
// yields identical bytes, and a report round-trips through JSON.
func TestReportSnapshotStability(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Gauge("mid").Set(3)
	reg.Histogram("lat", []float64{1, 5, 25}).Observe(4)

	snap := reg.Snapshot()
	rep := &Report{
		Name:           "test",
		Seed:           42,
		Config:         map[string]string{"n": "64", "protocol": "simera"},
		VirtualSeconds: 3600,
		EventsExecuted: 1000,
		Outcome:        map[string]float64{"delivered": 10},
		Drops:          map[string]uint64{"link_loss": 7},
		Metrics:        &snap,
	}

	var a, b bytes.Buffer
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same report marshaled to different bytes")
	}
	back, err := ReadReport(&a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("report round trip:\n got %+v\nwant %+v", back, rep)
	}
}

func TestMulti(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	tr := Multi(nil, a, nil, b)
	tr.Emit(Event{Type: MsgSent})
	tr.Emit(Event{Type: MsgDropped, Reason: ReasonLinkLoss})
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("multi reached %d and %d events, want 2 each", a.Len(), b.Len())
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	if Multi(a) != Tracer(a) {
		t.Error("Multi of one tracer should be that tracer")
	}
}

func TestTypeReasonStrings(t *testing.T) {
	// Every type and reason has a distinct, non-"invalid" name — the
	// wire vocabulary the docs table lists.
	seen := map[string]bool{}
	for _, typ := range Types() {
		s := typ.String()
		if s == "invalid" || seen[s] {
			t.Errorf("type %d has bad name %q", typ, s)
		}
		seen[s] = true
	}
	for _, r := range Reasons() {
		s := r.String()
		if s == "invalid" || seen[s] {
			t.Errorf("reason %d has bad name %q", r, s)
		}
		seen[s] = true
	}
	if Type(200).String() != "invalid" || Reason(200).String() != "invalid" {
		t.Error("out-of-range values must stringify as invalid")
	}
}

func ExampleAppendJSON() {
	e := Event{Type: MsgSent, At: 1000, Node: 0, Peer: 3, ID: 7, Slot: 2, Hop: 1, Size: 64}
	fmt.Println(string(AppendJSON(nil, e)))
	// Output: {"t":"msg_sent","at":1000,"node":0,"peer":3,"id":7,"seq":0,"slot":2,"hop":1,"size":64,"reason":"none"}
}

func TestTagNext(t *testing.T) {
	tag := Tag{ID: 9, Seg: 2, Slot: 1, Hop: 0}
	n := tag.Next()
	if n.Hop != 1 || n.ID != 9 || n.Seg != 2 || n.Slot != 1 {
		t.Errorf("Next: %+v", n)
	}
	if tag.Hop != 0 {
		t.Error("Next mutated its receiver")
	}
	// The zero (untagged) tag never advances: background traffic stays
	// indistinguishable from its zero value.
	if z := (Tag{}).Next(); z != (Tag{}) {
		t.Errorf("zero tag advanced: %+v", z)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		c.Emit(Event{Type: MsgSent, Seq: int64(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	evs := c.Events()
	evs[0].Seq = 99 // copies must not alias the collector's storage
	if c.Events()[0].Seq != 0 {
		t.Error("Events returned aliased storage")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset collector not empty")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 100 evenly spread samples 0.5..49.5: quantiles should be close to
	// the exact sample quantiles, and are always bounded by min/max.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i)/2 + 0.25)
	}
	s := h.snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 25, 1.5},
		{0.90, 45, 1.5},
		{0.99, 49.5, 1.5},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("q%.2f = %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}
	if got := s.Quantile(0); got != s.Min {
		t.Errorf("q0 = %g, want min %g", got, s.Min)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("q1 = %g, want max %g", got, s.Max)
	}
	if p50, p90, p99 := s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99); p50 > p90 || p90 > p99 {
		t.Errorf("quantiles not monotone: %g %g %g", p50, p90, p99)
	}

	// Overflow interpolation: samples past the last bound resolve
	// between the bound and the observed max.
	h2 := newHistogram([]float64{10})
	h2.Observe(5)
	h2.Observe(100)
	h2.Observe(200)
	if got := h2.Quantile(0.99); got <= 10 || got > 200 {
		t.Errorf("overflow quantile %g outside (10, 200]", got)
	}
}
