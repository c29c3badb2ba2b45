package experiments

import (
	"reflect"
	"testing"
)

// TestExperimentsDeterministic verifies the reproduction contract:
// identical seeds produce byte-identical result tables, even though
// parameter points fan out across goroutines (each point owns an
// independently seeded engine, so scheduling cannot leak in).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	for _, id := range []string{"fig2", "tab1", "abl1", "abl2", "abl3"} {
		a, err := Run(id, Options{Seed: 99, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := Run(id, Options{Seed: 99, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("%s: same seed produced different rows:\n%v\n%v", id, a.Rows, b.Rows)
		}
	}
}

// TestSeedChangesResults is the converse: different seeds must not
// collide (a constant-output bug would pass the test above).
func TestSeedChangesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	a, err := Run("tab1", Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("tab1", Options{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("different seeds produced identical churn-experiment rows")
	}
}
