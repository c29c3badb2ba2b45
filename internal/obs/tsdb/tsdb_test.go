package tsdb

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resilientmix/internal/obs"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels Labels
		want   string
	}{
		{"live_frames_out", nil, "live_frames_out"},
		{"up", L("node", "3"), `up{node="3"}`},
		{"m", L("b", "2", "a", "1"), `m{a="1",b="2"}`},
		{"m", L("x", `quo"te\back`+"\nnl"), `m{x="quo\"te\\back\nnl"}`},
	}
	for _, c := range cases {
		got := Key(c.name, c.labels)
		if got != c.want {
			t.Errorf("Key(%q, %v) = %q, want %q", c.name, c.labels, got, c.want)
		}
		name, labels, err := ParseKey(got)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", got, err)
		}
		if Key(name, labels) != got {
			t.Errorf("ParseKey(%q) does not round-trip: %q %v", got, name, labels)
		}
	}
	for _, bad := range []string{`m{a="1"`, `m{a=1}`, `m{a="1\q"}`, `m{a="unterminated}`} {
		if _, _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) succeeded, want error", bad)
		}
	}
}

func TestRingWrap(t *testing.T) {
	db := New(4)
	for i := 0; i < 10; i++ {
		db.Append("c", nil, int64(i)*1e6, float64(i))
	}
	s := db.Get("c", nil)
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("Len=%d Total=%d, want 4, 10", s.Len(), s.Total())
	}
	pts := s.Points()
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("point %d = %v, want %v", i, p.V, want)
		}
	}
	if last, ok := s.Latest(); !ok || last.V != 9 {
		t.Fatalf("Latest = %v, %v", last, ok)
	}
}

func TestQueries(t *testing.T) {
	db := New(64)
	// A counter ticking 10/s for 10s, with a reset at t=6s.
	for i := 0; i <= 10; i++ {
		v := float64(i * 10)
		if i >= 6 {
			v = float64((i - 6) * 10) // restarted at 0
		}
		db.Append("ctr", nil, int64(i)*1e6, v)
	}
	s := db.Get("ctr", nil)
	// 50 observed before the reset, 40 after: the reset step
	// contributes the post-reset value, not an underflow.
	inc, ok := s.CounterDelta(0)
	if !ok || inc != 90 {
		t.Fatalf("CounterDelta = %v, %v, want 90 (reset-aware)", inc, ok)
	}
	rate, ok := s.RatePerSec(0)
	if !ok || rate != 9 {
		t.Fatalf("RatePerSec = %v, %v, want 9", rate, ok)
	}
	// Windowed: points at t=7..10 (v=10,20,30,40) fall in the last
	// 3 seconds, three increments of 10 each.
	if inc, _ := s.CounterDelta(3e6); inc != 30 {
		t.Fatalf("CounterDelta(3s) = %v, want 30", inc)
	}

	rates := s.TailRates(3)
	if len(rates) != 3 {
		t.Fatalf("TailRates len = %d, want 3", len(rates))
	}
	for _, r := range rates {
		if r != 10 {
			t.Fatalf("TailRates = %v, want all 10", rates)
		}
	}
}

func TestMatchAndBounds(t *testing.T) {
	db := New(8)
	db.Append("live_frames_in_data", L("node", "0"), 1e6, 1)
	db.Append("live_frames_in_ack", L("node", "0"), 2e6, 1)
	db.Append("live_frames_out", L("node", "1"), 3e6, 1)
	if got := len(db.Match("live_frames_in_*")); got != 2 {
		t.Fatalf("Match prefix = %d series, want 2", got)
	}
	if got := len(db.Match("live_frames_out")); got != 1 {
		t.Fatalf("Match exact = %d series, want 1", got)
	}
	first, last, ok := db.Bounds()
	if !ok || first != 1e6 || last != 3e6 {
		t.Fatalf("Bounds = %v, %v, %v", first, last, ok)
	}
}

// TestDeterministicEncoding pins the on-disk byte format: equal DBs
// must dump to equal bytes, and the bytes themselves are golden.
func TestDeterministicEncoding(t *testing.T) {
	build := func() *DB {
		db := New(8)
		db.Append("up", L("node", "0"), 1_000_000, 1)
		db.Append("up", L("node", "1"), 1_000_000, 0)
		db.Append("live_frames_out", L("node", "0"), 1_000_000, 42)
		db.Append("live_frames_out", L("node", "0"), 2_000_000, 99.5)
		db.Append("nan_gauge", nil, 1_000_000, math.NaN())
		db.Append("inf_gauge", nil, 1_000_000, math.Inf(1))
		db.Annotate(Annotation{At: 2_000_000, Kind: "silent-relay",
			Series: `live_frames_in_data{node="1"}`, Value: 0, Detail: "no inbound frames"})
		return db
	}
	p1 := filepath.Join(t.TempDir(), "a.tsdb")
	p2 := filepath.Join(t.TempDir(), "b.tsdb")
	if err := build().WriteFile(p1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteFile(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatalf("equal DBs encoded differently:\n%s\n--\n%s", b1, b2)
	}
	want := `{"tsdb":1,"cap":8}
{"at":1000000,"s":"inf_gauge","v":"+Inf"}
{"at":1000000,"s":"live_frames_out{node=\"0\"}","v":"42"}
{"at":2000000,"s":"live_frames_out{node=\"0\"}","v":"99.5"}
{"at":1000000,"s":"nan_gauge","v":"NaN"}
{"at":1000000,"s":"up{node=\"0\"}","v":"1"}
{"at":1000000,"s":"up{node=\"1\"}","v":"0"}
{"at":2000000,"kind":"silent-relay","series":"live_frames_in_data{node=\"1\"}","v":"0","detail":"no inbound frames"}
`
	if string(b1) != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", b1, want)
	}
}

// TestFileRoundTrip checks write → read → write produces identical
// bytes, for both plain and gzip paths, including NaN/Inf values and
// annotations.
func TestFileRoundTrip(t *testing.T) {
	for _, name := range []string{"run.tsdb", "run.tsdb.gz"} {
		db := New(16)
		for i := 0; i < 20; i++ { // overflow the ring on one series
			db.Append("ctr", L("node", "0"), int64(i)*1e6, float64(i))
		}
		db.Append("g", nil, 5e6, math.Inf(-1))
		db.Annotate(Annotation{At: 7e6, Kind: "repair-spike", Value: 0.5, Detail: "paths died"})

		p := filepath.Join(t.TempDir(), name)
		if err := db.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Capacity() != db.Capacity() || len(got.All()) != len(db.All()) {
			t.Fatalf("%s: cap/series mismatch", name)
		}
		if !reflect.DeepEqual(got.Get("ctr", L("node", "0")).Points(), db.Get("ctr", L("node", "0")).Points()) {
			t.Fatalf("%s: points differ after round trip", name)
		}
		if !reflect.DeepEqual(got.Annotations(), db.Annotations()) {
			t.Fatalf("%s: annotations differ after round trip", name)
		}
		// -Inf must survive the string encoding.
		if v, _ := got.Get("g", nil).Latest(); !math.IsInf(v.V, -1) {
			t.Fatalf("%s: -Inf became %v", name, v.V)
		}
		// Second generation must be byte-identical to the first.
		p2 := filepath.Join(t.TempDir(), name)
		if err := got.WriteFile(p2); err != nil {
			t.Fatal(err)
		}
		b1, _ := os.ReadFile(p)
		b2, _ := os.ReadFile(p2)
		if name == "run.tsdb" && string(b1) != string(b2) {
			t.Fatalf("%s: second generation differs", name)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing header":   `{"at":1,"s":"x","v":"1"}`,
		"bad version":      `{"tsdb":99,"cap":4}`,
		"duplicate header": "{\"tsdb\":1,\"cap\":4}\n{\"tsdb\":1,\"cap\":4}",
		"bad value":        "{\"tsdb\":1,\"cap\":4}\n{\"at\":1,\"s\":\"x\",\"v\":\"zzz\"}",
		"unknown record":   "{\"tsdb\":1,\"cap\":4}\n{\"at\":1}",
		"empty":            "",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

// TestStreamedWriterMatchesDump: the recorder's streaming append path
// and the one-shot DB dump must load back to the same retained state.
func TestStreamedWriterMatchesDump(t *testing.T) {
	dir := t.TempDir()
	streamed := filepath.Join(dir, "stream.tsdb")
	w, err := Create(streamed, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := New(8)
	for i := 0; i < 12; i++ {
		at, v := int64(i)*1e6, float64(i*i)
		db.Append("c", L("node", "0"), at, v)
		w.Sample(at, Key("c", L("node", "0")), v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fromStream, err := ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream.Get("c", L("node", "0")).Points(), db.Get("c", L("node", "0")).Points()) {
		t.Fatal("streamed file loads to different retained points than the in-memory DB")
	}
}

func TestSampleSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("live.frames_out").Add(7)
	reg.Gauge("live.forward_states").Set(3)
	reg.Histogram("lat.ms", []float64{1, 10}).Observe(5)

	db := New(8)
	SampleSnapshot(db, 1e6, L("node", "2"), reg.Snapshot())
	if s := db.Get("live_frames_out", L("node", "2")); s == nil {
		t.Fatal("counter not sampled under sanitized name")
	} else if p, _ := s.Latest(); p.V != 7 {
		t.Fatalf("counter = %v, want 7", p.V)
	}
	if s := db.Get("lat_ms_count", L("node", "2")); s == nil {
		t.Fatal("histogram count not sampled")
	}
	if s := db.Get("lat_ms_sum", L("node", "2")); s == nil {
		t.Fatal("histogram sum not sampled")
	}
}

// TestConcurrentAppendQuery exercises the locking under the race
// detector: appenders, readers and annotators in parallel.
func TestConcurrentAppendQuery(t *testing.T) {
	db := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Append("c", L("node", "0"), int64(i), float64(i))
				db.Append("g", nil, int64(i), float64(g))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.All()
				if s := db.Get("c", L("node", "0")); s != nil {
					s.Points()
					s.CounterDelta(0)
					s.RatePerSec(0)
				}
				db.Annotate(Annotation{At: int64(i), Kind: "k"})
				db.Bounds()
			}
		}()
	}
	wg.Wait()
	if s := db.Get("c", L("node", "0")); s.Total() != 800 {
		t.Fatalf("Total = %d, want 800", s.Total())
	}
}
