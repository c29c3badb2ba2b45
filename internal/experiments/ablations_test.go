package experiments

import (
	"math"
	"testing"
)

func TestAbl1EqualBandwidthShapes(t *testing.T) {
	r, err := Abl1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: pa, regime, erasure sim, analytic, replication sim,
	// analytic, erasure KB, replication KB; rows pa = 0.95, 0.86, 0.70.
	for _, row := range r.Rows {
		for _, c := range []int{2, 4} {
			if sim, ana := cell(t, row[c]), cell(t, row[c+1]); math.Abs(sim-ana) > 0.02 {
				t.Errorf("pa=%s: simulated P %g far from closed form %g", row[0], sim, ana)
			}
		}
		// Equal payload bytes; the erasure arm's only extra is two more
		// paths' onion headers.
		if era, rep := cell(t, row[6]), cell(t, row[7]); era < rep || era > rep*1.25 {
			t.Errorf("pa=%s: erasure %g KB vs replication %g KB is not equal bandwidth", row[0], era, rep)
		}
	}
	obs1, obs3 := r.Rows[0], r.Rows[len(r.Rows)-1]
	if cell(t, obs1[2]) <= cell(t, obs1[4]) {
		t.Errorf("Observation 1: erasure %s not above replication %s", obs1[2], obs1[4])
	}
	if cell(t, obs3[2]) >= cell(t, obs3[4]) {
		t.Errorf("Observation 3: erasure %s not below replication %s", obs3[2], obs3[4])
	}
}

// TestAbl2PredictionTies pins abl2's finding: the predictor condemns no
// path, so both arms deliver exactly the same messages.
func TestAbl2PredictionTies(t *testing.T) {
	r, err := Abl2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	reactive, predictive := r.Rows[0], r.Rows[1]
	if reactive[1] != predictive[1] {
		t.Errorf("arms differ: reactive %s, predictive %s", reactive[1], predictive[1])
	}
	if reactive[3] != "0" || predictive[3] != "0" {
		t.Errorf("predictor condemned paths: reactive %s, predictive %s", reactive[3], predictive[3])
	}
	if cell(t, reactive[2]) <= 0 {
		t.Fatalf("nothing delivered: %v", r.Rows)
	}
}

func TestAbl3ZeroRTTShapes(t *testing.T) {
	r, err := Abl3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if mean, lo, hi := cell(t, row[1]), cell(t, row[2]), cell(t, row[3]); lo > mean || mean > hi || lo <= 0 {
			t.Errorf("%s: mean %g outside [%g, %g]", row[0], mean, lo, hi)
		}
	}
	// One crossing of L+1 links against the construction's 2L plus that
	// crossing: about 2.5x.
	combined, twoPass := cell(t, r.Rows[0][1]), cell(t, r.Rows[1][1])
	if twoPass < 2*combined || twoPass > 3*combined {
		t.Errorf("two-pass %g ms vs combined %g ms, want 2-3x", twoPass, combined)
	}
}
