package analyze

import (
	"math"
	"math/rand"
	"testing"

	"resilientmix/internal/analytic"
)

// samplePaths draws trials paths over n nodes: an initiator from
// initiators (all nodes when nil) and l relays uniformly, repeats
// allowed.
func samplePaths(rng *rand.Rand, n, l, trials int, initiators []int) []Path[int] {
	paths := make([]Path[int], trials)
	for i := range paths {
		init := rng.Intn(n)
		if initiators != nil {
			init = initiators[rng.Intn(len(initiators))]
		}
		relays := make([]int, l)
		for j := range relays {
			relays[j] = rng.Intn(n)
		}
		paths[i] = Path[int]{Initiator: init, Relays: relays}
	}
	return paths
}

// randomSet draws a compromised set of int(f*n) nodes uniformly, and
// the honest rest.
func randomSet(rng *rand.Rand, n int, f float64) (compromised, honest []int) {
	ids := rng.Perm(n)
	take := int(f * float64(n))
	return ids[:take], ids[take:]
}

func TestObservePathRecordsPredecessor(t *testing.T) {
	r, err := ReadPaths(100, []Path[int]{
		{1, []int{5, 6, 7}}, // compromised first: sees the initiator
		{2, []int{8, 5, 9}}, // compromised second: sees relay 8
		{3, []int{8, 6, 9}}, // untouched
	}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Paths != 3 || r.Touched != 2 {
		t.Fatalf("readout = %+v", r)
	}
	if r.FirstRelayHits != 1 {
		t.Fatalf("first-relay hits = %d, want 1", r.FirstRelayHits)
	}
	if math.Abs(r.GuessAccuracy-0.5) > 1e-12 {
		t.Fatalf("accuracy = %g, want 0.5", r.GuessAccuracy)
	}
	// The exposure formula: one sure guess, one wrong one, and one
	// uniform guess over the 99 honest nodes, over three paths.
	if want := (1 + 1.0/99) / 3; r.InitiatorExposure != want {
		t.Fatalf("exposure = %g, want %g", r.InitiatorExposure, want)
	}
	if want := 2.0 / 9; r.SlotShare != want {
		t.Fatalf("slot share = %g, want %g", r.SlotShare, want)
	}
}

func TestOnlyOneObservationPerPath(t *testing.T) {
	// Two colluding relays on one path still yield a single predecessor
	// observation — the first one, per the §5 analysis — though both
	// hold a relay slot.
	r, err := ReadPaths(10, []Path[int]{{1, []int{5, 6, 7}}}, []int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Touched != 1 || r.FirstRelayHits != 1 || r.GuessAccuracy != 1 {
		t.Fatalf("readout = %+v, want one observation, at the first relay", r)
	}
	if r.SlotShare != 2.0/3 {
		t.Fatalf("slot share = %g, want 2/3", r.SlotShare)
	}
}

// TestCompromisedInitiatorSkipped: §5 analyzes paths initiated by
// honest nodes, so a compromised initiator's path is not read at all.
func TestCompromisedInitiatorSkipped(t *testing.T) {
	r, err := ReadPaths(10, []Path[int]{{5, []int{6, 7, 8}}, {1, []int{2, 3, 4}}}, []int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Paths != 1 || r.Touched != 0 || r.SlotShare != 0 {
		t.Fatalf("readout = %+v, want only the honest initiator's path", r)
	}
	if r.InitiatorExposure != 1.0/8 {
		t.Fatalf("exposure = %g, want the uniform guess over 8 honest nodes", r.InitiatorExposure)
	}
}

func TestScoreEmpty(t *testing.T) {
	r, err := ReadPaths[int](100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r != (PathReadout{}) {
		t.Fatalf("empty readout = %+v", r)
	}
}

func TestReadPathsRejectsOutsideIDs(t *testing.T) {
	for name, c := range map[string]struct {
		paths       []Path[int]
		compromised []int
	}{
		"compromised": {nil, []int{10}},
		"initiator":   {[]Path[int]{{-1, []int{1}}}, nil},
		"relay":       {[]Path[int]{{0, []int{1, 10}}}, nil},
	} {
		if _, err := ReadPaths(10, c.paths, c.compromised); err == nil {
			t.Errorf("%s outside 0..9 accepted", name)
		}
	}
}

// TestRelayDuty pins the duty figures on a hand-counted sample: 40
// nodes, so the busiest 5 % is 2 nodes.
func TestRelayDuty(t *testing.T) {
	paths := []Path[int]{
		{0, []int{1, 2, 3}},
		{0, []int{1, 2, 4}},
		{5, []int{1, 6, 7}},
		{5, []int{1, 2, 8}},
	}
	r, err := ReadPaths(40, paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 holds 4 of 12 slots, node 2 holds 3: the top two hold 7.
	if want := 7.0 / 12; r.BusiestShare != want {
		t.Errorf("busiest share = %g, want %g", r.BusiestShare, want)
	}
	if want := 4 / (12.0 / 40); r.MaxMeanDuty != want {
		t.Errorf("max/mean = %g, want %g", r.MaxMeanDuty, want)
	}
	if r.Paths != 4 || r.Touched != 0 || r.SlotShare != 0 {
		t.Errorf("no attacker, yet readout = %+v", r)
	}
	// Fewer than 20 nodes: the busiest 5 % is still one node.
	r, err = ReadPaths(3, []Path[int]{{0, []int{1}}, {0, []int{1}}, {1, []int{2}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.BusiestShare != 2.0/3 || r.MaxMeanDuty != 2 {
		t.Errorf("3 nodes: busiest share %g, max/mean %g; want 2/3 and 2", r.BusiestShare, r.MaxMeanDuty)
	}
}

// TestFirstRelayShareMatchesExact: over random compromised sets and
// uniformly drawn paths, the first relay is compromised with
// probability exactly f — PredecessorCase1Exact, not the published
// P(Case 1), which omits C(L,i).
func TestFirstRelayShareMatchesExact(t *testing.T) {
	const n, l, trials = 1000, 3, 100000
	rng := rand.New(rand.NewSource(1))
	for _, f := range []float64{0.1, 0.25} {
		compromised, _ := randomSet(rng, n, f)
		r, err := ReadPaths(n, samplePaths(rng, n, l, trials, nil), compromised)
		if err != nil {
			t.Fatal(err)
		}
		if exact := analytic.PredecessorCase1Exact(f); math.Abs(r.FirstRelayShare-exact) > 0.01 {
			t.Fatalf("f=%g: first-relay share %g, exact %g", f, r.FirstRelayShare, exact)
		}
		published, err := analytic.PredecessorCase1(f, l)
		if err != nil {
			t.Fatal(err)
		}
		if r.FirstRelayShare < published {
			t.Fatalf("f=%g: first-relay share %g below the published P(Case 1) %g", f, r.FirstRelayShare, published)
		}
	}
}

func TestExposureMatchesExactEquation4(t *testing.T) {
	// Monte Carlo over random paths from honest initiators: the
	// empirical initiator exposure must converge to the exact Eq. 4
	// (Case-1 probability = f) and upper-bound the paper's published
	// variant.
	const n, l, trials = 1000, 3, 60000
	rng := rand.New(rand.NewSource(3))
	for _, f := range []float64{0.05, 0.1, 0.2} {
		compromised, honest := randomSet(rng, n, f)
		r, err := ReadPaths(n, samplePaths(rng, n, l, trials, honest), compromised)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := analytic.InitiatorProbabilityExact(n, f, l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.InitiatorExposure-exact) > 0.01 {
			t.Fatalf("f=%g: empirical exposure %g, exact Eq.4 %g", f, r.InitiatorExposure, exact)
		}
		published, err := analytic.InitiatorProbability(n, f, l)
		if err != nil {
			t.Fatal(err)
		}
		if r.InitiatorExposure+0.01 < published {
			t.Fatalf("f=%g: empirical %g below published bound %g", f, r.InitiatorExposure, published)
		}
	}
}

func TestExposureGrowsWithFraction(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(4))
	prev := -1.0
	for _, f := range []float64{0.05, 0.15, 0.3} {
		compromised, _ := randomSet(rng, n, f)
		r, err := ReadPaths(n, samplePaths(rng, n, 3, 20000, nil), compromised)
		if err != nil {
			t.Fatal(err)
		}
		if r.InitiatorExposure <= prev {
			t.Fatalf("exposure not increasing in f: %g at f=%g", r.InitiatorExposure, f)
		}
		prev = r.InitiatorExposure
	}
}
