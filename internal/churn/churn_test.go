package churn

import (
	"math"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
	"resilientmix/internal/topology"
)

func newNet(t *testing.T, n int, seed int64) (*sim.Engine, *netsim.Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	lat, err := topology.Uniform(n, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return eng, netsim.New(eng, lat)
}

func TestDriverValidation(t *testing.T) {
	_, net := newNet(t, 4, 1)
	if _, err := NewDriver(net, nil); err == nil {
		t.Error("nil lifetime accepted")
	}
}

func TestStartTwice(t *testing.T) {
	_, net := newNet(t, 4, 1)
	d, err := NewDriver(net, DefaultLifetime())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("second Start did not fail")
	}
}

func TestChurnTogglesNodes(t *testing.T) {
	eng, net := newNet(t, 64, 2)
	d, err := NewDriver(net, DefaultLifetime())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run(4 * sim.Hour)
	if d.Transitions() == 0 {
		t.Fatal("no churn transitions occurred in 4 hours")
	}
	// With symmetric up/down distributions the steady-state up fraction
	// is about one half; after 4h it should be well away from both 0 and 1.
	up := net.UpCount()
	if up == 0 || up == 64 {
		t.Fatalf("up count = %d after 4h of churn", up)
	}
}

func TestPinnedNodesStayUp(t *testing.T) {
	eng, net := newNet(t, 32, 3)
	d, err := NewDriver(net, DefaultLifetime(), Pin(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// Verify at many points during the run, not just the end.
	for i := 1; i <= 8; i++ {
		eng.Run(sim.Time(i) * sim.Hour)
		if !net.IsUp(0) || !net.IsUp(5) {
			t.Fatalf("pinned node went down at %v", eng.Now())
		}
	}
}

func TestMinimumSessionRespected(t *testing.T) {
	// Classic Pareto sessions are never shorter than beta; no node may
	// leave before 1800s under the default model.
	eng, net := newNet(t, 32, 4)
	var firstLeave sim.Time = -1
	net.AddStateListener(func(id netsim.NodeID, up bool) {
		if !up && firstLeave < 0 {
			firstLeave = eng.Now()
		}
	})
	d, _ := NewDriver(net, DefaultLifetime())
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Hour)
	if firstLeave >= 0 && firstLeave < sim.FromSeconds(1800) {
		t.Fatalf("a node left at %v, before the Pareto minimum 1800s", firstLeave)
	}
	if firstLeave < 0 {
		t.Fatal("no node ever left in 2 hours — churn not running")
	}
}

func TestSyntheticGnutellaTrace(t *testing.T) {
	if _, err := SyntheticGnutellaTrace(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	trace, err := SyntheticGnutellaTrace(20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 20000 {
		t.Fatalf("trace length %d", len(trace))
	}
	for _, v := range trace {
		if v <= 0 {
			t.Fatal("non-positive session time in trace")
		}
		if math.Mod(v, 120) != 0 {
			t.Fatalf("session %g not quantized to the poll interval", v)
		}
	}
	// The trace must closely match the published Pareto fit (that is the
	// entire point of Figure 1).
	ref := stats.Pareto{Alpha: GnutellaAlpha, Beta: GnutellaBeta}
	cdf := stats.NewEmpiricalCDF(trace)
	if d := cdf.KolmogorovSmirnov(ref); d > 0.08 {
		t.Fatalf("K-S distance to Pareto fit = %g, want < 0.08", d)
	}
	// Deterministic per seed.
	again, _ := SyntheticGnutellaTrace(20000, 7)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatal("trace not deterministic for a fixed seed")
		}
	}
}
