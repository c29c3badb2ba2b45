package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSizes is a run small enough for the test suite: two short windows
// (one traced, one not), one set-up, no TIME_WAIT fill.
func smokeSizes() sizes {
	return sizes{
		windows:      2,
		window:       150 * time.Millisecond,
		setupReps:    1,
		coldCycles:   2,
		warmup:       50 * time.Millisecond,
		microBudget:  time.Millisecond,
		simWarmup:    600,
		simWarmTicks: 5,
		simCheck:     10,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the metric tables in spec.go and
// BENCHMARK.json the same list.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	seen := make(map[string]bool)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the code %v", layer, perLayer)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmokeRunEmitsEveryMetric runs every workload once at smoke size,
// traced, and checks that both result lines carry exactly the declared
// metrics with the declared units, that every end-to-end metric is
// positive, and that every message arrived byte-identical.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	outDir = t.TempDir()
	for _, wl := range workloadNames {
		res, err := runWorkload(wl, defaultSeed, smokeSizes(), true)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(res.problems) != 0 || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d failed %d problems %v", wl, res.attempted, res.failed, res.problems)
		}
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			if err := report(&buf, res, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line: %v", wl, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", wl, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := line.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", wl, traced, d.name, mv.Unit, d.unit)
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s: metric %s = %v", wl, d.name, mv.Value)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, d.name, mv.Value)
				}
			}
		}
		if res.info["info.spans"] == 0 || len(res.table) == 0 {
			t.Errorf("%s: traced run recorded no spans", wl)
		}
	}
}

// TestSeedChangesInputsNotCounts: another seed gives other payloads and
// another fault schedule, but the same exact counts per message.
func TestSeedChangesInputsNotCounts(t *testing.T) {
	a, b := newPayloads(1, 1024), newPayloads(2, 1024)
	if bytes.Equal(a.base, b.base) {
		t.Error("payloads of seeds 1 and 2 are equal")
	}
	bufA, bufB := append([]byte(nil), a.base...), append([]byte(nil), a.base...)
	a.stamp(bufA, 7)
	a.stamp(bufB, 8)
	if bytes.Equal(bufA, bufB) {
		t.Error("messages 7 and 8 of one seed are equal")
	}
	if ctr, ok := a.verify(bufA); !ok || ctr != 7 {
		t.Errorf("verify(own message) = %d, %v", ctr, ok)
	}
	if _, ok := b.verify(bufA); ok {
		t.Error("a message of seed 1 verified under seed 2")
	}
	bufA[100] ^= 1
	if _, ok := a.verify(bufA); ok {
		t.Error("a flipped bit verified")
	}

	s1, s2 := faultSchedule(1, 20*time.Second), faultSchedule(2, 20*time.Second)
	if len(s1) != 9 || len(s2) != 9 {
		t.Fatalf("20-s schedules have %d and %d faults, want 9", len(s1), len(s2))
	}
	if reflect.DeepEqual(s1, s2) {
		t.Error("fault schedules of seeds 1 and 2 are equal")
	}
	if !reflect.DeepEqual(s1, faultSchedule(1, 20*time.Second)) {
		t.Error("fault schedule is not a function of the seed")
	}
	for i, f := range s1 {
		if f.terminal != (i%2 == 0) || f.at != faultFirst+time.Duration(i)*faultEvery {
			t.Errorf("fault %d: %+v", i, f)
		}
	}

	outDir = t.TempDir()
	frames := make([]float64, 2)
	for i, seed := range []int64{1, 2} {
		res, err := runLive(liveSpecs[0], seed, smokeSizes(), false)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = res.layer["livenet.frames_per_msg"]
	}
	// 2 paths x (3 forward + 3 reverse) frames; a message in flight at a
	// reading moves the ratio by a fraction of one message.
	for _, f := range frames {
		if math.Abs(f-12) > 0.5 {
			t.Errorf("live_small frames per message = %v, want 12", frames)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("msg", at(0), at(10), -1, 1)
	tr.add("send", at(0), at(4), root, 1)
	tr.add("await", at(3), at(9), root, 1) // overlaps send by 1 ms
	tr.add("callback", at(5), at(6), parentOfMsg, 1)
	rows := selfTimes(tr.resolve())
	got := make(map[string]float64)
	for _, r := range rows {
		got[r.Name] = r.SelfMS
	}
	// msg: 10 ms minus the union [0,9] of its children = 1 ms.
	if got["msg"] != 1 || got["send"] != 4 || got["await"] != 6 || got["callback"] != 1 {
		t.Errorf("self times = %v", got)
	}
}
