package mixchoice

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"resilientmix/internal/membership"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

func pool(n int) []membership.Candidate {
	out := make([]membership.Candidate, n)
	for i := range out {
		out[i] = membership.Candidate{
			ID:       netsim.NodeID(i),
			Q:        float64(i) / float64(n),
			AliveFor: sim.Time(i) * sim.Second,
		}
	}
	return out
}

func TestSelectPathsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SelectPaths(rng, Random, pool(10), 0, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SelectPaths(rng, Random, pool(10), 2, 0); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := SelectPaths(rng, Strategy(99), pool(10), 1, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSelectPathsInsufficientCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SelectPaths(rng, Random, pool(5), 2, 3); err == nil {
		t.Error("5 candidates accepted for 6 slots")
	}
	// Exclusions shrink the pool below the requirement.
	if _, err := SelectPaths(rng, Random, pool(6), 2, 3, 0); err == nil {
		t.Error("exclusion not applied to pool size")
	}
}

func TestSelectPathsDisjointAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, strat := range []Strategy{Random, Biased} {
		paths, err := SelectPaths(rng, strat, pool(50), 4, 3, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(paths) != 4 {
			t.Fatalf("%v: %d paths", strat, len(paths))
		}
		seen := make(map[netsim.NodeID]bool)
		for _, p := range paths {
			if len(p) != 3 {
				t.Fatalf("%v: path length %d", strat, len(p))
			}
			for _, id := range p {
				if id == 0 || id == 1 {
					t.Fatalf("%v: excluded node %d selected", strat, id)
				}
				if seen[id] {
					t.Fatalf("%v: node %d appears on two paths", strat, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestBiasedPicksHighestQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cands := pool(100)
	paths, err := SelectPaths(rng, Biased, cands, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Top 6 q values belong to IDs 94..99; all must be selected.
	want := map[netsim.NodeID]bool{94: true, 95: true, 96: true, 97: true, 98: true, 99: true}
	for _, p := range paths {
		for _, id := range p {
			if !want[id] {
				t.Fatalf("biased selected %d, not among the top-q nodes", id)
			}
		}
	}
	// The first path must hold the very best nodes (97, 98, 99).
	for _, id := range paths[0] {
		if id < 97 {
			t.Fatalf("first path contains %d; best relays must go to path 0", id)
		}
	}
}

func TestBiasedTieBreakByAliveFor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cands := make([]membership.Candidate, 10)
	for i := range cands {
		cands[i] = membership.Candidate{
			ID:       netsim.NodeID(i),
			Q:        1, // all fresh (the oracle-membership regime)
			AliveFor: sim.Time(i) * sim.Hour,
		}
	}
	paths, err := SelectPaths(rng, Biased, cands, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[netsim.NodeID]bool{7: true, 8: true, 9: true}
	for _, id := range paths[0] {
		if !want[id] {
			t.Fatalf("tie-break selected %d instead of the longest-lived nodes", id)
		}
	}
}

// selectBySort is the biased selection as it was before rankTop:
// shuffle, stable-sort the whole pool, read the first k·l. Kept as the
// oracle rankTop must agree with, tie for tie.
func selectBySort(rng *rand.Rand, cands []membership.Candidate, k, l int, exclude ...netsim.NodeID) [][]netsim.NodeID {
	skip := make(map[netsim.NodeID]bool)
	for _, id := range exclude {
		skip[id] = true
	}
	var pool []membership.Candidate
	for _, c := range cands {
		if !skip[c.ID] {
			pool = append(pool, c)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Q != pool[j].Q {
			return pool[i].Q > pool[j].Q
		}
		return pool[i].AliveFor > pool[j].AliveFor
	})
	paths := make([][]netsim.NodeID, k)
	for p := range paths {
		for h := 0; h < l; h++ {
			paths[p] = append(paths[p], pool[p*l+h].ID)
		}
	}
	return paths
}

func TestBiasedMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		gen := rand.New(rand.NewSource(seed))
		// Few distinct q and lifetime values, so most comparisons tie and
		// the shuffled position decides.
		n := 13 + gen.Intn(1000)
		qs, lives := 1+gen.Intn(4), 1+gen.Intn(4)
		cands := make([]membership.Candidate, n)
		for i := range cands {
			cands[i] = membership.Candidate{
				ID:       netsim.NodeID(i),
				Q:        float64(gen.Intn(qs)) / float64(qs),
				AliveFor: sim.Time(gen.Intn(lives)) * sim.Hour,
			}
		}
		exclude := []netsim.NodeID{0, netsim.NodeID(n - 1)}
		for _, kl := range [][2]int{{1, 1}, {1, 3}, {4, 3}, {n - 2, 1}} {
			k, l := kl[0], kl[1]
			got, err := SelectPaths(rand.New(rand.NewSource(seed)), Biased, cands, k, l, exclude...)
			if err != nil {
				t.Fatal(err)
			}
			want := selectBySort(rand.New(rand.NewSource(seed)), cands, k, l, exclude...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, n=%d, k=%d l=%d:\n got %v\nwant %v", seed, n, k, l, got, want)
			}
		}
	}
}

// TestSelectPathsSharedPools runs SelectPaths on several goroutines at
// once — simulated worlds and live sessions share its candidate pools —
// and requires each call's paths to be the ones a sort picks, and to
// stay so after every other call has reused the pools.
func TestSelectPathsSharedPools(t *testing.T) {
	const workers, calls = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cands := pool(100 + 300*w)
			var got, want [][][]netsim.NodeID
			for i := 0; i < calls; i++ {
				seed := int64(w*calls + i)
				paths, err := SelectPaths(rand.New(rand.NewSource(seed)), Biased, cands, 4, 3, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, paths)
				want = append(want, selectBySort(rand.New(rand.NewSource(seed)), cands, 4, 3, 0))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("worker %d: paths differ from the sorted choice or changed after later calls", w)
			}
		}(w)
	}
	wg.Wait()
}

func TestRandomIgnoresQ(t *testing.T) {
	// Over many draws, random selection must pick low-q nodes roughly as
	// often as high-q ones.
	rng := rand.New(rand.NewSource(5))
	cands := pool(20)
	counts := make(map[netsim.NodeID]int)
	const trials = 4000
	for i := 0; i < trials; i++ {
		paths, err := SelectPaths(rng, Random, cands, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts[paths[0][0]]++
	}
	expected := trials / 20
	for id, c := range counts {
		if c < expected/2 || c > expected*2 {
			t.Fatalf("node %d picked %d times, expected ≈%d: not uniform", id, c, expected)
		}
	}
}

func TestRandomDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cands := pool(10)
	if _, err := SelectPaths(rng, Random, cands, 2, 2); err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		if c.ID != netsim.NodeID(i) {
			t.Fatal("candidate slice was reordered")
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Random.String() != "random" || Biased.String() != "biased" {
		t.Error("strategy names wrong")
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy has empty name")
	}
}
