package experiments

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewRandomValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := randomAttackers(rng, 100, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := randomAttackers(rng, 100, 1.0); err == nil {
		t.Error("f=1 accepted")
	}
}

func TestNewRandomFractionAndExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	attackers, err := randomAttackers(rng, 1000, 0.2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(attackers) != 200 {
		t.Fatalf("compromised %d nodes, want 200", len(attackers))
	}
	if slices.Contains(attackers, 0) || slices.Contains(attackers, 1) {
		t.Fatal("excluded node was compromised")
	}
	slices.Sort(attackers)
	if len(slices.Compact(attackers)) != 200 {
		t.Fatal("a node was compromised twice")
	}
}

func TestExt1AnonymityShapes(t *testing.T) {
	r, err := Ext1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, row := range r.Rows {
		emp := cell(t, row[1])
		exact := cell(t, row[2])
		published := cell(t, row[3])
		uniform := cell(t, row[4])
		// Empirical tracks the exact closed form.
		if d := emp - exact; d > 0.03 || d < -0.03 {
			t.Fatalf("empirical %g vs exact %g at f=%s", emp, exact, row[0])
		}
		// Published form is a lower bound; uniform guess is the floor.
		if published > exact+1e-9 {
			t.Fatalf("published %g above exact %g", published, exact)
		}
		if emp <= uniform {
			t.Fatalf("attack no better than uniform guessing at f=%s", row[0])
		}
		// Exposure grows with f.
		if emp <= prev {
			t.Fatalf("exposure not increasing in f: %v", r.Rows)
		}
		prev = emp
	}
}

func TestExt2MembershipShapes(t *testing.T) {
	r, err := Ext2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for c := 1; c <= 2; c++ {
		oracle := cell(t, r.Rows[0][c])
		onehop := cell(t, r.Rows[1][c])
		gossip := cell(t, r.Rows[2][c])
		// The oracle upper-bounds both real protocols (small tolerance
		// for sampling noise).
		if onehop > oracle+2 || gossip > oracle+2 {
			t.Fatalf("real membership beat the oracle: %v", r.Rows)
		}
		// And the real protocols must still be usable (biased choice
		// degrades gracefully, not catastrophically).
		if onehop < 50 || gossip < 50 {
			t.Fatalf("membership staleness collapsed setup success: %v", r.Rows)
		}
	}
}

func TestExt3WeightedAllocationShapes(t *testing.T) {
	r, err := Ext3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	even := cell(t, r.Rows[0][1])
	weighted := cell(t, r.Rows[1][1])
	if weighted < even {
		t.Fatalf("weighted allocation (%g%%) below even (%g%%)", weighted, even)
	}
	if even <= 0 {
		t.Fatal("even allocation delivered nothing")
	}
}

func TestExt5CoverTrafficShapes(t *testing.T) {
	r, err := Ext5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ambNoCover := cell(t, r.Rows[0][2])
	ambCover := cell(t, r.Rows[1][2])
	// Cover traffic must enlarge the attacker's candidate set.
	if ambCover <= ambNoCover {
		t.Fatalf("cover traffic did not grow ambiguity: %g vs %g", ambCover, ambNoCover)
	}
	if ambNoCover < 1 {
		t.Fatalf("no-cover ambiguity %g below 1", ambNoCover)
	}
	// And it must cut the attacker's success probability.
	succNoCover := cell(t, r.Rows[0][1])
	succCover := cell(t, r.Rows[1][1])
	if succCover >= succNoCover {
		t.Fatalf("cover traffic did not cut attack success: %g%% vs %g%%", succCover, succNoCover)
	}
}

func TestExt6LongLivedAttackerShapes(t *testing.T) {
	r, err := Ext6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	randSlots := cell(t, r.Rows[0][1])
	biasSlots := cell(t, r.Rows[1][1])
	// Biased choice must over-select the always-on attackers relative to
	// random choice (the §7 risk).
	if biasSlots <= randSlots {
		t.Fatalf("biased slot capture %g%% not above random %g%%", biasSlots, randSlots)
	}
	// Random choice picks attackers at most at roughly their
	// availability-weighted share (they are 10% of nodes but always up,
	// so up to ~2x their population share when half the honest nodes are
	// down).
	if randSlots > 30 {
		t.Fatalf("random slot capture %g%% implausibly high", randSlots)
	}
	if biasSlots > 100 {
		t.Fatalf("slot capture above 100%%: %v", r.Rows)
	}
}

func TestExt7PathLengthShapes(t *testing.T) {
	r, err := Ext7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	prevComp, prevSucc := 2.0, 2.0
	for _, row := range r.Rows {
		comp := cell(t, row[1])
		succ := cell(t, row[4])
		// Full-path compromise falls with L; delivery probability falls
		// with L.
		if comp >= prevComp {
			t.Fatalf("compromise probability not decreasing: %v", r.Rows)
		}
		if succ >= prevSucc {
			t.Fatalf("delivery probability not decreasing: %v", r.Rows)
		}
		prevComp, prevSucc = comp, succ
	}
	// The exact Eq.4 exposure is L-independent.
	first, last := cell(t, r.Rows[0][2]), cell(t, r.Rows[5][2])
	if first != last {
		t.Fatalf("exact Eq.4 exposure varied with L: %g vs %g", first, last)
	}
}

func TestExt8LoadConcentrationShapes(t *testing.T) {
	r, err := Ext8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	randShare := cell(t, r.Rows[0][1])
	biasShare := cell(t, r.Rows[1][1])
	if biasShare <= randShare {
		t.Fatalf("biased choice did not concentrate load: %g%% vs %g%%", biasShare, randShare)
	}
	// Random choice over a ~50%-alive population: the busiest 5% carry
	// somewhat more than 5% but nothing extreme.
	if randShare < 4 || randShare > 20 {
		t.Fatalf("random top-5%% share %g%% implausible", randShare)
	}
}

func TestExt9LossShapes(t *testing.T) {
	r, err := Ext9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// At zero loss everyone delivers everything.
	for c := 1; c <= 3; c++ {
		if cell(t, r.Rows[0][c]) < 99 {
			t.Fatalf("lossless delivery below 100%%: %v", r.Rows[0])
		}
	}
	// At 10% loss redundancy must dominate: SimEra(4,4) > CurMix, and
	// delivery decreases with loss for every protocol.
	var tenPct []string
	for _, row := range r.Rows {
		if row[0] == "10%" {
			tenPct = row
		}
	}
	if tenPct == nil {
		t.Fatal("no 10% row")
	}
	cur, era44 := cell(t, tenPct[1]), cell(t, tenPct[3])
	if era44 <= cur {
		t.Fatalf("SimEra(4,4) (%g%%) not above CurMix (%g%%) at 10%% loss", era44, cur)
	}
	for c := 1; c <= 3; c++ {
		first := cell(t, r.Rows[0][c])
		last := cell(t, r.Rows[len(r.Rows)-1][c])
		if last >= first {
			t.Fatalf("delivery did not fall with loss in column %d", c)
		}
	}
}

func TestExt4MutualAnonymityShapes(t *testing.T) {
	r, err := Ext4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	directLat := cell(t, r.Rows[0][1])
	anonLat := cell(t, r.Rows[1][1])
	// The extra redirection must cost roughly a second path traversal:
	// strictly more latency, less than 4x.
	if anonLat <= directLat {
		t.Fatalf("rendezvous latency %g not above direct %g", anonLat, directLat)
	}
	if anonLat > directLat*4 {
		t.Fatalf("rendezvous latency %g implausibly high vs direct %g", anonLat, directLat)
	}
	directBW := cell(t, r.Rows[0][2])
	anonBW := cell(t, r.Rows[1][2])
	if anonBW <= directBW {
		t.Fatalf("rendezvous bandwidth %g not above direct %g", anonBW, directBW)
	}
}
