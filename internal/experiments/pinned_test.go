package experiments

import (
	"bytes"
	"testing"
)

// TestAttackExperimentsPinned pins the exact quick-mode, seed-1 CSV of
// the three attack experiments and of ext8's relay duty (rows and
// notes). The shape tests would pass a refactor that moved the numbers;
// this one fails on any change to what the observer or the attacker
// sees.
func TestAttackExperimentsPinned(t *testing.T) {
	want := map[string]string{
		"ext1": `f,empirical,Eq.4 exact,Eq.4 published,uniform guess
0.05,0.0549,0.0539,0.0208,0.0039
0.10,0.0955,0.1039,0.0382,0.0039
0.20,0.1928,0.2039,0.0765,0.0039
0.30,0.3111,0.3039,0.1229,0.0039
# empirical exposure should match the exact form (first-relay-malicious probability is exactly f)
# the published Eq.4 omits C(L,i) and is a lower bound; both far exceed the uniform-guess baseline
`,
		"ext5": `Configuration,P(attacker names initiator),mean ambiguity (anonymity set)
no cover traffic,16.98%,6.0
cover traffic on all nodes (§4.6),6.11%,9.7
# without cover the tie set is the initiator plus its own relays (they also transmit right before every delivery); with cover it grows toward the covering population
# the attacker guesses uniformly among ties, so P(success) ≈ 1/ambiguity when the initiator ties the top — cover traffic shrinks it toward 1/N
`,
		"ext6": `Mix choice,relay slots captured,first-relay capture (Case 1)
random,9.21%,10.12%
biased,28.28%,28.28%
# baseline: malicious nodes are 10% of the population; random choice picks them at roughly the availability-weighted rate
# biased choice over-selects the always-on attackers — the §7 risk is real; the paper's counterargument is that cover traffic masks who initiates, and that the same incentive also rewards honest nodes for staying online
`,
		"ext8": `Mix choice,load on busiest 5% of nodes,max/mean load ratio
random,6.87%,1.5x
biased,11.20%,2.5x
# biased choice concentrates relay duty on the long-lived minority — a bandwidth-fairness cost (and a juicier compromise target, see ext6) that the paper's evaluation does not surface
`,
	}
	for _, id := range []string{"ext1", "ext5", "ext6", "ext8"} {
		r, err := Run(id, Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got bytes.Buffer
		if err := r.WriteCSV(&got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.String() != want[id] {
			t.Errorf("%s CSV changed:\n got:\n%s\nwant:\n%s", id, got.String(), want[id])
		}
	}
}
