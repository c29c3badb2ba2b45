package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// promTestRegistry builds a registry exercising every instrument kind,
// including names that need sanitizing.
func promTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("live.frames_out").Add(42)
	reg.Counter("net.dropped.link_loss").Add(7)
	reg.Gauge("live.forward_states").Set(3)
	reg.Gauge("engine.load").Set(0.25)
	h := reg.Histogram("latency.ms", []float64{5, 10, 50})
	for _, v := range []float64{1, 6, 7, 11, 100} {
		h.Observe(v)
	}
	reg.Histogram("empty.ms", []float64{1, 2}) // zero samples
	return reg
}

func TestPrometheusRoundTrip(t *testing.T) {
	reg := promTestRegistry()
	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("encoder output does not parse under the 0.0.4 grammar:\n%s\nerr: %v", buf.String(), err)
	}

	// Counters and gauges round-trip by sanitized name.
	for name, want := range snap.Counters {
		f := fams[SanitizePromName(name)]
		if f == nil || f.Type != "counter" {
			t.Fatalf("counter %q missing or mistyped: %+v", name, f)
		}
		if got, ok := f.Value(); !ok || got != float64(want) {
			t.Fatalf("counter %q = %v, want %d", name, got, want)
		}
	}
	for name, want := range snap.Gauges {
		f := fams[SanitizePromName(name)]
		if f == nil || f.Type != "gauge" {
			t.Fatalf("gauge %q missing or mistyped: %+v", name, f)
		}
		if got, ok := f.Value(); !ok || got != want {
			t.Fatalf("gauge %q = %v, want %v", name, got, want)
		}
	}

	// Histograms: cumulative buckets ending at +Inf == count, plus
	// _sum and _count.
	for name, want := range snap.Histograms {
		f := fams[SanitizePromName(name)]
		if f == nil || f.Type != "histogram" {
			t.Fatalf("histogram %q missing or mistyped: %+v", name, f)
		}
		base := SanitizePromName(name)
		var prev float64 = -1
		var infSeen bool
		for _, s := range f.Samples {
			switch s.Name {
			case base + "_bucket":
				le, ok := s.Labels["le"]
				if !ok {
					t.Fatalf("%s bucket without le label", base)
				}
				if s.Value < prev {
					t.Fatalf("%s buckets not cumulative at le=%s", base, le)
				}
				prev = s.Value
				if le == "+Inf" {
					infSeen = true
					if s.Value != float64(want.Count) {
						t.Fatalf("%s +Inf bucket %v != count %d", base, s.Value, want.Count)
					}
				}
			case base + "_sum":
				if s.Value != want.Sum {
					t.Fatalf("%s_sum = %v, want %v", base, s.Value, want.Sum)
				}
			case base + "_count":
				if s.Value != float64(want.Count) {
					t.Fatalf("%s_count = %v, want %d", base, s.Value, want.Count)
				}
			}
		}
		if !infSeen {
			t.Fatalf("%s has no +Inf bucket", base)
		}
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	reg := promTestRegistry()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equal snapshots encoded differently")
	}
}

func TestPrometheusHandler(t *testing.T) {
	reg := promTestRegistry()
	rec := httptest.NewRecorder()
	reg.PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type %q", ct)
	}
	if _, err := ParsePrometheus(rec.Body); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizePromName(t *testing.T) {
	cases := map[string]string{
		"live.frames_in.construct": "live_frames_in_construct",
		"9lives":                   "_9lives",
		"ok_name:x":                "ok_name:x",
		"a-b c":                    "a_b_c",
		"":                         "_",
	}
	for in, want := range cases {
		if got := SanitizePromName(in); got != want {
			t.Errorf("SanitizePromName(%q) = %q, want %q", in, got, want)
		}
		if !validPromName(SanitizePromName(in)) {
			t.Errorf("sanitized %q still invalid", in)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"9bad_name 1",
		"name 1 2 3",
		"name{le=5} 1",   // unquoted label value
		"name{=\"x\"} 1", // empty label name
		"name{l=\"x\"",   // unterminated
		"name notanumber",
		"# TYPE x flute",    // unknown type
		"# TYPE x",          // short TYPE
		"name{l=\"\\q\"} 1", // bad escape
	}
	for _, line := range bad {
		if _, err := ParsePrometheus(strings.NewReader(line)); err == nil {
			t.Errorf("malformed line accepted: %q", line)
		}
	}
	ok := []string{
		"# just a comment",
		"name{l=\"a\\nb\\\\c\\\"d\"} 4 1700000000",
		"name2 +Inf",
		"name3 NaN",
		"",
	}
	if _, err := ParsePrometheus(strings.NewReader(strings.Join(ok, "\n"))); err != nil {
		t.Errorf("well-formed input rejected: %v", err)
	}
}

func TestHistogramEmptyDefined(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty", []float64{1, 2, 4})
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean() = %v, want 0", got)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
		if math.IsNaN(h.Quantile(q)) {
			t.Errorf("empty Quantile(%v) is NaN", q)
		}
	}

	// The encoder must emit valid output for the empty histogram: no
	// NaN sums, cumulative zeros, a +Inf bucket of 0.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatalf("empty histogram encoded a NaN:\n%s", buf.String())
	}
	if _, err := ParsePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// A single-sample histogram keeps Quantile inside the observed
	// range for every q, NaN included.
	h.Observe(3)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got < 0 || got > 3 {
		t.Errorf("Quantile(0.5) = %v outside [0,3]", got)
	}
}

func TestPrometheusNameCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Inc()
	reg.Gauge("a_b").Set(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fams["a_b"] == nil || fams["a_b_gauge"] == nil {
		t.Fatalf("collision not disambiguated: %v", sortedKeys(fams))
	}
}
