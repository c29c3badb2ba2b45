package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientmix/internal/obs/rules"
	"resilientmix/internal/obs/tsdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildRecordedRun synthesizes the store a recorder would produce
// from a 3-node cluster run with six injected episodes — node 2
// silent from t=10s, a repair spike (20 path deaths at t=20s), a
// repair storm (rebuilds climbing 3/s from t=20s), node 0 degraded
// from t=21s through t=27s, a goroutine leak on node 1 ramping from
// t=11s, and one 300ms GC pause on node 0 at t=25s — evaluating the
// default rules each tick exactly as the recorder does.
func buildRecordedRun() (*tsdb.DB, []rules.Alert) {
	db := tsdb.New(128)
	eng := rules.NewEngine(rules.Defaults()...)
	var alerts []rules.Alert
	for i := 0; i <= 30; i++ {
		at := int64(i) * 1e6
		for _, n := range []string{"0", "1", "2"} {
			l := tsdb.L("node", n)
			db.Append("up", l, at, 1)
			db.Append("ready", l, at, 1)
			db.Append("live_frames_out", l, at, float64(i*10))
			in := float64(i * 10)
			if n == "2" && i > 10 {
				in = 100 // silent: counter frozen at its t=10 value
			}
			db.Append("live_frames_in_data", l, at, in)
			// Every node sends half its frames to each of the other two.
			for _, peer := range []string{"0", "1", "2"} {
				if peer != n {
					db.Append("live_peer_out_"+peer, l, at, float64(i*5))
				}
			}
			db.Append("live_forward_states", l, at, 2)
			db.Append("live_reverse_states", l, at, 1)
			db.Append("runtime_heap_inuse_bytes", l, at, 48<<20)
			// Node 1 leaks goroutines from t=11: +200/s, plateauing at
			// 2120 from t=20 — one breach episode for the trend rule.
			gor := 120.0
			if n == "1" && i > 10 {
				gor = 120 + 200*float64(min(i, 20)-10)
			}
			db.Append("runtime_goroutines", l, at, gor)
			// Node 0 takes one 300ms GC pause at t=25.
			pause := 0.004
			if n == "0" && i == 25 {
				pause = 0.3
			}
			db.Append("runtime_last_gc_pause_seconds", l, at, pause)
		}
		// Node 0 is the initiator; node 1 terminates sessions.
		l0 := tsdb.L("node", "0")
		db.Append("session_segments_sent", l0, at, float64(i*4))
		db.Append("session_segments_acked", l0, at, float64(i*4))
		dead := 0.0
		if i >= 20 {
			dead = 20
		}
		db.Append("session_paths_dead", l0, at, dead)
		// Repair storm: rebuilds climb 3/s from t=20 — past the 1/s
		// default once the window fills.
		repaired := 0.0
		if i > 20 {
			repaired = float64((i - 20) * 3)
		}
		db.Append("live_repair_repaired", l0, at, repaired)
		// Node 0 runs below full path width from t=21 through t=27.
		degraded := 0.0
		if i >= 21 && i <= 27 {
			degraded = 1
		}
		db.Append("live_degraded", l0, at, degraded)
		db.Append("recv_delivered", tsdb.L("node", "1"), at, float64(i))

		fired := eng.Eval(db, at)
		alerts = append(alerts, fired...)
		for _, a := range fired {
			db.Annotate(a.Annotation())
		}
	}
	return db, alerts
}

// TestWatchGolden pins the dashboard rendering of the synthetic
// recorded run, and with it the acceptance scenario: each injected
// episode — relay failure, repair spike, repair storm, degraded node,
// goroutine leak, GC pause — fires exactly one alert, all visible in
// the render.
func TestWatchGolden(t *testing.T) {
	db, alerts := buildRecordedRun()

	count := map[string]int{}
	for _, a := range alerts {
		count[a.Rule]++
	}
	for _, rule := range []string{"silent-relay", "repair-spike", "repair-storm", "node-degraded", "goroutine-leak", "gc-pause-spike"} {
		if count[rule] != 1 {
			t.Fatalf("injected failures: %s fired %d times, want 1 (alerts: %+v)", rule, count[rule], alerts)
		}
	}
	if len(alerts) != 6 {
		t.Fatalf("injected failures: %d alerts, want exactly 6: %+v", len(alerts), alerts)
	}

	var b strings.Builder
	RenderWatch(&b, db)
	got := b.String()

	golden := filepath.Join("testdata", "watch.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("watch render drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, needle := range []string{"silent-relay", "repair-spike", "repair-storm", "node-degraded", "goroutine-leak", "gc-pause-spike", "repaired", "degraded", "alerts (6)"} {
		if !strings.Contains(got, needle) {
			t.Errorf("render is missing %q", needle)
		}
	}
}

// TestRecordReplayRenderIdentical is the record/replay fidelity
// contract: writing the run to disk (plain and gzip) and reloading
// it must render the watch dashboard byte-identically to the live
// store.
func TestRecordReplayRenderIdentical(t *testing.T) {
	db, _ := buildRecordedRun()
	var live strings.Builder
	RenderWatch(&live, db)

	for _, name := range []string{"run.tsdb", "run.tsdb.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := db.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		reloaded, err := tsdb.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var replay strings.Builder
		RenderWatch(&replay, reloaded)
		if live.String() != replay.String() {
			t.Errorf("%s: replay render differs from live:\n--- live ---\n%s--- replay ---\n%s",
				name, live.String(), replay.String())
		}
	}
}

// TestRenderAfterRingOverflow: render identity must survive ring
// wrap-around, because replay reconstructs only the retained window.
func TestRenderAfterRingOverflow(t *testing.T) {
	db := tsdb.New(8)
	for i := 0; i < 40; i++ {
		at := int64(i) * 1e6
		db.Append("up", tsdb.L("node", "0"), at, 1)
		db.Append("live_frames_out", tsdb.L("node", "0"), at, float64(i*7))
	}
	var live strings.Builder
	RenderWatch(&live, db)

	path := filepath.Join(t.TempDir(), "wrap.tsdb")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := tsdb.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var replay strings.Builder
	RenderWatch(&replay, reloaded)
	if live.String() != replay.String() {
		t.Errorf("overflowed ring replay differs:\n--- live ---\n%s--- replay ---\n%s", live.String(), replay.String())
	}
}

// TestRenderDashboard: the dashboard shows which node is down, the
// cumulative counters a single tick (`anonctl status`) already has,
// where the fleet's frames went, and the alert naming the dead node.
func TestRenderDashboard(t *testing.T) {
	db := tsdb.New(8)
	n0, n1 := tsdb.L("node", "0"), tsdb.L("node", "1")
	for i, up1 := range []float64{1, 0, 0} {
		at := int64(i) * 1e6
		db.Append("up", n0, at, 1)
		db.Append("ready", n0, at, 1)
		db.Append("live_frames_out", n0, at, 3)
		db.Append("live_peer_out_10", n0, at, 1)
		db.Append("live_peer_out_2", n0, at, 2)
		db.Append("session_segments_sent", n0, at, 4)
		db.Append("up", n1, at, up1)
		db.Append("ready", n1, at, up1)
	}
	db.Annotate(tsdb.Annotation{At: 2e6, Kind: "node-down", Series: tsdb.Key("up", n1), Detail: "up = 0, breaching < 1"})
	var b strings.Builder
	RenderWatch(&b, db)
	out := b.String()
	for _, want := range []string{
		"1     DOWN FAIL  ",
		"0              3         4         0         0\n",
		"egress by peer: 2:2 10:1\n",
		"[node 1] node-down: up = 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard lacks %q:\n%s", want, out)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	RenderWatch(&b, tsdb.New(4))
	if !strings.Contains(b.String(), "no samples") {
		t.Fatalf("empty render = %q", b.String())
	}
}

func TestSpark(t *testing.T) {
	if got := spark([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("spark ramp = %q", got)
	}
	if got := spark([]float64{1, 1}, 4); got != "  ██" {
		t.Errorf("spark pad = %q", got)
	}
	if got := spark(nil, 3); got != "   " {
		t.Errorf("spark empty = %q", got)
	}
}
