package analytic

import (
	"fmt"
	"math"
)

// PredecessorCase1 returns the probability that the first relay node of
// a path is malicious given that the attacker occupies at least one
// position on it — the paper's P(Case1) (§5):
//
//	P(Case1) = Σ_{i=1}^{L} (i/L) f^i (1-f)^{L-i}
//
// (The formula is reproduced exactly as published. Note that it omits
// the binomial coefficient C(L,i), so it is not the true probability
// that the first relay is malicious — that is simply f, see
// PredecessorCase1Exact — but Equation 4 is built on this form, so we
// implement it verbatim; analyze.ReadPaths's tests cross-check both
// against sampled paths.)
func PredecessorCase1(f float64, l int) (float64, error) {
	if f < 0 || f >= 1 {
		return 0, fmt.Errorf("analytic: malicious fraction %g outside [0,1)", f)
	}
	if l < 1 {
		return 0, fmt.Errorf("analytic: path length %d < 1", l)
	}
	var sum float64
	for i := 1; i <= l; i++ {
		sum += float64(i) / float64(l) * math.Pow(f, float64(i)) * math.Pow(1-f, float64(l-i))
	}
	return sum, nil
}

// InitiatorProbability returns Equation 4 of §5: the probability that
// the attacker correctly identifies a given node x as the initiator,
// with N system nodes, malicious fraction f, and path length L.
//
//	P(x = I) = P(Case1) + (1 - P(Case1)) / (N (1 - f))
//
// In Case 1 the first relay is malicious and identifies its predecessor
// with certainty; otherwise the attacker guesses uniformly among the
// N(1-f) honest nodes.
func InitiatorProbability(n int, f float64, l int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("analytic: need at least 2 nodes, got %d", n)
	}
	c1, err := PredecessorCase1(f, l)
	if err != nil {
		return 0, err
	}
	return c1 + (1-c1)/(float64(n)*(1-f)), nil
}

// PredecessorCase1Exact returns the true probability that the first
// relay of a random path is malicious when each relay is independently
// malicious with probability f: exactly f. Provided alongside the
// paper's published form so tests and EXPERIMENTS.md can quantify the
// difference.
func PredecessorCase1Exact(f float64) float64 { return f }

// InitiatorProbabilityExact is Equation 4 rebuilt on the exact Case-1
// probability.
func InitiatorProbabilityExact(n int, f float64, l int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("analytic: need at least 2 nodes, got %d", n)
	}
	if f < 0 || f >= 1 {
		return 0, fmt.Errorf("analytic: malicious fraction %g outside [0,1)", f)
	}
	if l < 1 {
		return 0, fmt.Errorf("analytic: path length %d < 1", l)
	}
	c1 := PredecessorCase1Exact(f)
	return c1 + (1-c1)/(float64(n)*(1-f)), nil
}
