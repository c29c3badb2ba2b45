package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPathSuccessProb(t *testing.T) {
	if got := PathSuccessProb(0.7, 3); math.Abs(got-0.343) > 1e-12 {
		t.Fatalf("p = %g, want 0.343", got)
	}
	if PathSuccessProb(0.5, 0) != 1 {
		t.Error("L=0 should give p=1")
	}
}

func TestPSuccessValidation(t *testing.T) {
	if _, err := PSuccess(3, 2, 0.5); err == nil {
		t.Error("k not multiple of r accepted")
	}
	if _, err := PSuccess(0, 2, 0.5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PSuccess(4, 2, 1.5); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestPSuccessDegenerate(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		if v, _ := PSuccess(k, 2, 0); v != 0 {
			t.Errorf("p=0: P(%d) = %g", k, v)
		}
		if v, _ := PSuccess(k, 2, 1); v != 1 {
			t.Errorf("p=1: P(%d) = %g", k, v)
		}
	}
	// r=1 means all paths must succeed: P(k) = p^k.
	p := 0.8
	v, _ := PSuccess(5, 1, p)
	if math.Abs(v-math.Pow(p, 5)) > 1e-12 {
		t.Fatalf("r=1: P(5) = %g, want p^5", v)
	}
	// k=r means any single path suffices: P = 1 - (1-p)^k.
	v, _ = PSuccess(4, 4, p)
	if math.Abs(v-(1-math.Pow(1-p, 4))) > 1e-12 {
		t.Fatalf("k=r: P = %g", v)
	}
}

func TestPSuccessMatchesDirectSum(t *testing.T) {
	// Cross-check the log-space computation against a naive direct sum
	// with explicit binomials for small k.
	choose := func(n, k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	for _, tc := range []struct {
		k, r int
		p    float64
	}{{4, 2, 0.343}, {8, 2, 0.636}, {12, 4, 0.857}, {20, 2, 0.5}} {
		want := 0.0
		for i := tc.k / tc.r; i <= tc.k; i++ {
			want += choose(tc.k, i) * math.Pow(tc.p, float64(i)) * math.Pow(1-tc.p, float64(tc.k-i))
		}
		got, err := PSuccess(tc.k, tc.r, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("P(k=%d,r=%d,p=%g) = %g, want %g", tc.k, tc.r, tc.p, got, want)
		}
	}
}

func TestPSuccessInUnitInterval(t *testing.T) {
	f := func(rawK, rawR uint8, rawP uint16) bool {
		r := 1 + int(rawR)%4
		k := r * (1 + int(rawK)%10)
		p := float64(rawP) / math.MaxUint16
		v, err := PSuccess(k, r, p)
		return err == nil && v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservationRegimes(t *testing.T) {
	// The exact parameters of Figure 2: r=2, L=3.
	cases := []struct {
		pa   float64
		want Observation
	}{
		{0.95, Observation1}, // p=0.857, pr=1.71 > 4/3
		{0.86, Observation2}, // p=0.636, 1 < pr=1.27 <= 4/3
		{0.70, Observation3}, // p=0.343, pr=0.686 <= 1
	}
	for _, c := range cases {
		p := PathSuccessProb(c.pa, 3)
		if got := ClassifyObservation(p, 2); got != c.want {
			t.Errorf("pa=%g: got %v, want %v", c.pa, got, c.want)
		}
	}
}

func TestObservationMonotonicityBehaviour(t *testing.T) {
	// Observation 1: P(k+r) > P(k) for all k in regime 1.
	p := PathSuccessProb(0.95, 3)
	prev := 0.0
	for k := 2; k <= 40; k += 2 {
		v, err := PSuccess(k, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("Observation 1 violated at k=%d: P=%g, prev=%g", k, v, prev)
		}
		prev = v
	}
	// Observation 3: P decreases in k everywhere in regime 3.
	p = PathSuccessProb(0.70, 3)
	prev = 1.0
	for k := 2; k <= 40; k += 2 {
		v, err := PSuccess(k, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("Observation 3 violated at k=%d: P=%g, prev=%g", k, v, prev)
		}
		prev = v
	}
	// Observation 2: an initial dip followed by recovery above the dip.
	p = PathSuccessProb(0.86, 3)
	var vals []float64
	for k := 2; k <= 60; k += 2 {
		v, err := PSuccess(k, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	min := vals[0]
	minIdx := 0
	for i, v := range vals {
		if v < min {
			min, minIdx = v, i
		}
	}
	if minIdx == 0 || minIdx == len(vals)-1 {
		t.Fatalf("Observation 2 expects an interior dip; min at index %d", minIdx)
	}
	if vals[len(vals)-1] <= min {
		t.Fatal("Observation 2 expects recovery after the dip")
	}
}

func TestPredecessorCase1(t *testing.T) {
	if _, err := PredecessorCase1(-0.1, 3); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := PredecessorCase1(1, 3); err == nil {
		t.Error("f=1 accepted")
	}
	if _, err := PredecessorCase1(0.1, 0); err == nil {
		t.Error("L=0 accepted")
	}
	// f=0: no malicious nodes, Case 1 never occurs.
	v, err := PredecessorCase1(0, 3)
	if err != nil || v != 0 {
		t.Fatalf("f=0: %g, %v", v, err)
	}
	// L=1: formula reduces to f exactly.
	v, _ = PredecessorCase1(0.3, 1)
	if math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("L=1: %g, want 0.3", v)
	}
	// Published form is a lower bound on the exact probability f.
	for _, f := range []float64{0.05, 0.1, 0.2, 0.3} {
		v, _ := PredecessorCase1(f, 3)
		if v > PredecessorCase1Exact(f)+1e-12 {
			t.Fatalf("published form %g exceeds exact %g at f=%g", v, f, f)
		}
	}
}

func TestInitiatorProbability(t *testing.T) {
	if _, err := InitiatorProbability(1, 0.1, 3); err == nil {
		t.Error("n=1 accepted")
	}
	// f=0: attacker can only guess uniformly among N nodes.
	v, err := InitiatorProbability(1000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.0/1000) > 1e-12 {
		t.Fatalf("f=0: %g, want 1/N", v)
	}
	// Anonymity degrades with f.
	prev := v
	for _, f := range []float64{0.05, 0.1, 0.2, 0.4} {
		v, err := InitiatorProbability(1000, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("P(x=I) not increasing in f at %g", f)
		}
		prev = v
	}
	// And stays a probability.
	if prev <= 0 || prev >= 1 {
		t.Fatalf("P(x=I) = %g out of range", prev)
	}
}

func TestInitiatorProbabilityExact(t *testing.T) {
	v, err := InitiatorProbabilityExact(1000, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2 + 0.8/(1000*0.8)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("exact Eq.4 = %g, want %g", v, want)
	}
	if _, err := InitiatorProbabilityExact(1000, -1, 3); err == nil {
		t.Error("bad f accepted")
	}
	if _, err := InitiatorProbabilityExact(1000, 0.2, 0); err == nil {
		t.Error("bad L accepted")
	}
}
