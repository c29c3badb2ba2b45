package rules

import (
	"fmt"
	"testing"

	"resilientmix/internal/obs/tsdb"
)

const sec = int64(1e6)

func TestThresholdForAndRearm(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "node-down", Kind: Threshold, Metric: "up", PerNode: true, Op: OpLT, Value: 1, For: 2})

	fired := 0
	// up, then down for 3 ticks (fires on the 2nd), up again, down for
	// 2 more (fires again after re-arming).
	seq := []float64{1, 0, 0, 0, 1, 0, 0}
	for i, v := range seq {
		at := int64(i) * sec
		db.Append("up", tsdb.L("node", "0"), at, v)
		alerts := e.Eval(db, at)
		fired += len(alerts)
		switch i {
		case 2, 6:
			if len(alerts) != 1 {
				t.Fatalf("tick %d: got %d alerts, want 1", i, len(alerts))
			}
			if alerts[0].Rule != "node-down" || alerts[0].Series != `up{node="0"}` {
				t.Fatalf("tick %d: unexpected alert %+v", i, alerts[0])
			}
		default:
			if len(alerts) != 0 {
				t.Fatalf("tick %d: unexpected alerts %+v", i, alerts)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("total alerts = %d, want 2 (one per breach episode)", fired)
	}
}

func TestRateRule(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "error-storm", Kind: Rate, Metric: "live_send_errors", Op: OpGT, Value: 5, Window: 4 * sec})
	var fired []Alert
	for i := 0; i <= 10; i++ {
		v := float64(i) // 1/s: quiet
		if i > 5 {
			v = 5 + float64(i-5)*20 // 20/s: storm
		}
		at := int64(i) * sec
		db.Append("live_send_errors", tsdb.L("node", "0"), at, v)
		fired = append(fired, e.Eval(db, at)...)
	}
	if len(fired) != 1 {
		t.Fatalf("alerts = %+v, want exactly 1", fired)
	}
}

func TestBurnRateComplementSkipsIdle(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "loss", Kind: BurnRate, Num: "acked", Den: "sent", Complement: true, Op: OpGT, Value: 0.5})
	// Counters exist but never move: an idle cluster must not burn.
	for i := 0; i < 5; i++ {
		at := int64(i) * sec
		db.Append("sent", nil, at, 100)
		db.Append("acked", nil, at, 100)
		if alerts := e.Eval(db, at); len(alerts) != 0 {
			t.Fatalf("idle tick %d fired %+v", i, alerts)
		}
	}
	// Now 10 sent, 2 acked: loss 0.8 > 0.5.
	db.Append("sent", nil, 5*sec, 110)
	db.Append("acked", nil, 5*sec, 102)
	alerts := e.Eval(db, 5*sec)
	if len(alerts) != 1 || alerts[0].Rule != "loss" {
		t.Fatalf("alerts = %+v, want one loss alert", alerts)
	}
}

func TestBurnRateZeroDenominatorWithActivity(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "repair-spike", Kind: BurnRate, Num: "session_paths_dead", Den: "session_segments_sent", Op: OpGT, Value: 0.25})
	// Paths die with zero segments moving: infinite ratio, must fire.
	for i := 0; i < 3; i++ {
		at := int64(i) * sec
		db.Append("session_paths_dead", nil, at, float64(i*3))
		db.Append("session_segments_sent", nil, at, 0)
	}
	alerts := e.Eval(db, 2*sec)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly 1", alerts)
	}
}

func TestAbsenceSkipsDownNodes(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "silent-relay", Kind: Absence, Metric: "live_frames_in_*", PerNode: true,
		RefMetric: "live_frames_out", MinRef: 1, Window: 3 * sec})
	for i := 0; i <= 5; i++ {
		at := int64(i) * sec
		db.Append("live_frames_out", tsdb.L("node", "0"), at, float64(i*10))
		db.Append("live_frames_in_data", tsdb.L("node", "0"), at, float64(i*10))
		// Node 1 is down (up=0) and flat: node-down territory, not
		// silent-relay.
		db.Append("up", tsdb.L("node", "1"), at, 0)
		db.Append("live_frames_in_data", tsdb.L("node", "1"), at, 0)
	}
	if alerts := e.Eval(db, 5*sec); len(alerts) != 0 {
		t.Fatalf("down node flagged silent: %+v", alerts)
	}
}

func TestFlap(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Rule{Name: "readiness-flap", Kind: Flap, Metric: "ready", PerNode: true, Op: OpGT, Value: 2, Window: 20 * sec})
	vals := []float64{1, 1, 0, 1, 0, 1} // 4 transitions
	var fired []Alert
	for i, v := range vals {
		at := int64(i) * sec
		db.Append("ready", tsdb.L("node", "0"), at, v)
		fired = append(fired, e.Eval(db, at)...)
	}
	if len(fired) != 1 || fired[0].Rule != "readiness-flap" {
		t.Fatalf("alerts = %+v, want one readiness-flap", fired)
	}
}

// TestInjectedFailuresFireExactlyOnce is the acceptance-criteria
// scenario: a 30-tick recorded run with one injected relay failure
// and one repair spike must produce exactly one silent-relay alert
// and exactly one repair-spike alert under the default ruleset, and
// nothing else.
func TestInjectedFailuresFireExactlyOnce(t *testing.T) {
	db := tsdb.New(256)
	e := NewEngine(Defaults()...)
	nodes := []string{"0", "1", "2"}

	var all []Alert
	for i := 0; i <= 30; i++ {
		at := int64(i) * sec
		framesIn := func(node string) float64 {
			// Node 2 goes silent from t=10: its inbound counter
			// freezes at its t=10 value.
			if node == "2" && i > 10 {
				return 100
			}
			return float64(i * 10)
		}
		for _, n := range nodes {
			l := tsdb.L("node", n)
			db.Append("up", l, at, 1)
			db.Append("ready", l, at, 1)
			db.Append("live_frames_out", l, at, float64(i*10))
			db.Append("live_frames_in_data", l, at, framesIn(n))
			// Node 0 is the initiator: it alone drives sessions.
			if n == "0" {
				db.Append("session_segments_sent", l, at, float64(i*4))
				db.Append("session_segments_acked", l, at, float64(i*4))
				// Repair spike: 20 paths die at once at t=20 —
				// 20 deaths against ~40 segments in the window.
				dead := 0.0
				if i >= 20 {
					dead = 20
				}
				db.Append("session_paths_dead", l, at, dead)
			}
		}
		all = append(all, e.Eval(db, at)...)
	}

	count := map[string]int{}
	for _, a := range all {
		count[a.Rule]++
	}
	if count["silent-relay"] != 1 {
		t.Errorf("silent-relay fired %d times, want exactly 1 (alerts: %+v)", count["silent-relay"], all)
	}
	if count["repair-spike"] != 1 {
		t.Errorf("repair-spike fired %d times, want exactly 1 (alerts: %+v)", count["repair-spike"], all)
	}
	if len(all) != 2 {
		t.Errorf("total alerts = %d, want 2: %+v", len(all), all)
	}
	for _, a := range all {
		if a.Rule == "silent-relay" && a.Series != fmt.Sprintf("live_frames_in_data{node=%q}", "2") {
			t.Errorf("silent-relay flagged %q, want node 2's series", a.Series)
		}
	}
}

// TestEvalDeterministic: same db, same rule set, same alert stream.
func TestEvalDeterministic(t *testing.T) {
	run := func() []Alert {
		db := tsdb.New(64)
		e := NewEngine(Defaults()...)
		var all []Alert
		for i := 0; i <= 12; i++ {
			at := int64(i) * sec
			for _, n := range []string{"0", "1"} {
				l := tsdb.L("node", n)
				up := 1.0
				if n == "1" && i >= 6 {
					up = 0
				}
				db.Append("up", l, at, up)
				db.Append("ready", l, at, up)
			}
			all = append(all, e.Eval(db, at)...)
		}
		return all
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("nondeterministic eval:\n%+v\n%+v", a, b)
	}
	if len(a) != 1 || a[0].Rule != "node-down" {
		t.Fatalf("alerts = %+v, want one node-down", a)
	}
}

// TestRepairStormAndDegradedFireOnce covers the chaos-era rules: a
// sustained burst of path rebuilds fires repair-storm exactly once,
// and a node holding live.degraded above zero for two scrapes fires
// node-degraded exactly once — then both re-arm after clearing.
func TestRepairStormAndDegradedFireOnce(t *testing.T) {
	db := tsdb.New(256)
	e := NewEngine(Defaults()...)

	var all []Alert
	for i := 0; i <= 30; i++ {
		at := int64(i) * sec
		l := tsdb.L("node", "0")
		db.Append("up", l, at, 1)
		db.Append("ready", l, at, 1)
		// Repair storm: rebuilds climb 3/s from t=20 — well past the
		// 1/s default once the window fills.
		repaired := 0.0
		if i > 20 {
			repaired = float64((i - 20) * 3)
		}
		db.Append("live_repair_repaired", l, at, repaired)
		// Degraded episode: below full width from t=21 through t=27.
		degraded := 0.0
		if i >= 21 && i <= 27 {
			degraded = 1
		}
		db.Append("live_degraded", l, at, degraded)
		all = append(all, e.Eval(db, at)...)
	}

	count := map[string]int{}
	for _, a := range all {
		count[a.Rule]++
	}
	if count["repair-storm"] != 1 {
		t.Errorf("repair-storm fired %d times, want exactly 1 (alerts: %+v)", count["repair-storm"], all)
	}
	if count["node-degraded"] != 1 {
		t.Errorf("node-degraded fired %d times, want exactly 1 (alerts: %+v)", count["node-degraded"], all)
	}
	if len(all) != 2 {
		t.Errorf("total alerts = %d, want 2: %+v", len(all), all)
	}
}

// TestNotReadyFiresOncePerEpisode: a reachable node whose /readyz
// fails for two scrapes fires not-ready once, however long the episode
// lasts, and again only after it cleared; a node that is down has
// ready = 0 as well but is node-down's case alone.
func TestNotReadyFiresOncePerEpisode(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Defaults()...)
	n0, n1 := tsdb.L("node", "0"), tsdb.L("node", "1")
	var all []Alert
	for i, ready := range []float64{1, 0, 0, 0, 0, 1, 0, 0} {
		at := int64(i) * 15 * sec // slower than readiness-flap's window counts
		db.Append("up", n0, at, 1)
		db.Append("ready", n0, at, ready)
		db.Append("up", n1, at, 0)
		db.Append("ready", n1, at, 0)
		fired := e.Eval(db, at)
		for _, a := range fired {
			if a.Rule == "not-ready" && (i != 2 && i != 7 || a.Series != `ready{node="0"}`) {
				t.Errorf("tick %d: unexpected %+v", i, a)
			}
		}
		all = append(all, fired...)
	}
	count := map[string]int{}
	for _, a := range all {
		count[a.Rule]++
	}
	if count["not-ready"] != 2 || count["node-down"] != 1 || len(all) != 3 {
		t.Fatalf("alerts = %+v, want not-ready twice (node 0, one per episode) and node-down once (node 1)", all)
	}
}

// TestStalledSessionFiresSegmentLoss: an initiator that keeps sending
// segments while no ack comes back — the old one-shot detector's
// "stalled-sessions" — is segment-loss-slo's case under the default
// ruleset: one alert for the episode, none while acks kept up.
func TestStalledSessionFiresSegmentLoss(t *testing.T) {
	db := tsdb.New(64)
	e := NewEngine(Defaults()...)
	l := tsdb.L("node", "0")
	var all []Alert
	for i := 0; i <= 12; i++ {
		at := int64(i) * sec
		db.Append("up", l, at, 1)
		db.Append("ready", l, at, 1)
		db.Append("session_segments_sent", l, at, float64(i*4))
		db.Append("session_segments_acked", l, at, float64(min(i, 4)*4)) // acks stop at t=4
		fired := e.Eval(db, at)
		if i <= 4 && len(fired) != 0 {
			t.Fatalf("tick %d: alerts while every segment was acked: %+v", i, fired)
		}
		all = append(all, fired...)
	}
	if len(all) != 1 || all[0].Rule != "segment-loss-slo" {
		t.Fatalf("alerts = %+v, want one segment-loss-slo", all)
	}
}
