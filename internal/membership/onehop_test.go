package membership

import (
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

func newOneHopEnv(t *testing.T, n int, seed int64, cfg OneHopConfig) (*sim.Engine, *netsim.Network, *OneHop) {
	t.Helper()
	eng := sim.NewEngine(seed)
	lat, err := topology.Uniform(n, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(eng, lat)
	oh, err := NewOneHop(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mux := netsim.NewMux()
		oh.Attach(netsim.NodeID(i), mux)
		net.SetHandler(netsim.NodeID(i), mux)
	}
	oh.SeedFull()
	oh.Start()
	return eng, net, oh
}

func TestOneHopConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	lat, _ := topology.Uniform(16, 50*sim.Millisecond)
	net := netsim.New(eng, lat)
	bad := []OneHopConfig{
		{Slices: 0, Units: 1, KeepaliveEvery: sim.Second, ExchangeEvery: sim.Second, PingTimeout: sim.Second},
		{Slices: 1, Units: 0, KeepaliveEvery: sim.Second, ExchangeEvery: sim.Second, PingTimeout: sim.Second},
		{Slices: 2, Units: 2, KeepaliveEvery: 0, ExchangeEvery: sim.Second, PingTimeout: sim.Second},
		{Slices: 2, Units: 2, KeepaliveEvery: sim.Second, ExchangeEvery: 0, PingTimeout: sim.Second},
		{Slices: 2, Units: 2, KeepaliveEvery: sim.Second, ExchangeEvery: sim.Second, PingTimeout: 0},
		{Slices: 8, Units: 8, KeepaliveEvery: sim.Second, ExchangeEvery: sim.Second, PingTimeout: sim.Second}, // 64 > 16 nodes
	}
	for _, cfg := range bad {
		if _, err := NewOneHop(net, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestOneHopGeometry(t *testing.T) {
	eng := sim.NewEngine(1)
	lat, _ := topology.Uniform(64, 50*sim.Millisecond)
	net := netsim.New(eng, lat)
	oh, err := NewOneHop(net, OneHopConfig{
		Slices: 4, Units: 2,
		KeepaliveEvery: sim.Second, ExchangeEvery: sim.Second, PingTimeout: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 64 nodes, 4 slices of 16, 2 units of 8.
	if oh.sliceOf(0) != 0 || oh.sliceOf(15) != 0 || oh.sliceOf(16) != 1 || oh.sliceOf(63) != 3 {
		t.Fatal("sliceOf wrong")
	}
	if s, u := oh.unitOf(7); s != 0 || u != 0 {
		t.Fatalf("unitOf(7) = (%d,%d)", s, u)
	}
	if s, u := oh.unitOf(8); s != 0 || u != 1 {
		t.Fatalf("unitOf(8) = (%d,%d)", s, u)
	}
	if lo, hi := o2(oh.sliceRange(1)); lo != 16 || hi != 32 {
		t.Fatalf("sliceRange(1) = [%d,%d)", lo, hi)
	}
	if lo, hi := o2(oh.unitRange(1, 1)); lo != 24 || hi != 32 {
		t.Fatalf("unitRange(1,1) = [%d,%d)", lo, hi)
	}
	if oh.successor(63) != 0 || oh.successor(5) != 6 {
		t.Fatal("successor wrong")
	}
}

func o2(a, b int) (int, int) { return a, b }

func TestOneHopDetectsLeave(t *testing.T) {
	cfg := OneHopConfig{
		Slices: 2, Units: 2,
		KeepaliveEvery: 2 * sim.Second, ExchangeEvery: 2 * sim.Second, PingTimeout: sim.Second,
	}
	eng, net, oh := newOneHopEnv(t, 32, 2, cfg)
	eng.Run(30 * sim.Second) // protocol settles, join baselines learned
	net.SetUp(10, false)
	eng.Run(eng.Now() + 2*sim.Minute)
	// A distant node (different slice) must have learned of the death.
	info, ok := oh.CacheOf(25).Lookup(10)
	if !ok {
		t.Fatal("node 25 has no entry for node 10")
	}
	if !info.Down {
		t.Fatalf("node 25 did not learn node 10's death: %+v", info)
	}
	if q := oh.CacheOf(25).Q(10); q != 0 {
		t.Fatalf("down node q = %g, want 0", q)
	}
	if oh.Stats().EventsDetected == 0 || oh.Stats().Pings == 0 {
		t.Fatalf("stats = %+v", oh.Stats())
	}
}

func TestOneHopDetectsRejoin(t *testing.T) {
	cfg := OneHopConfig{
		Slices: 2, Units: 2,
		KeepaliveEvery: 2 * sim.Second, ExchangeEvery: 2 * sim.Second, PingTimeout: sim.Second,
	}
	eng, net, oh := newOneHopEnv(t, 32, 3, cfg)
	eng.Run(30 * sim.Second)
	net.SetUp(10, false)
	eng.Run(eng.Now() + 90*sim.Second)
	net.SetUp(10, true)
	eng.Run(eng.Now() + 2*sim.Minute)
	info, ok := oh.CacheOf(25).Lookup(10)
	if !ok {
		t.Fatal("no entry for node 10")
	}
	if info.Down {
		t.Fatalf("node 25 still believes node 10 is down: %+v", info)
	}
	if q := oh.CacheOf(25).Q(10); q <= 0 {
		t.Fatalf("rejoined node q = %g", q)
	}
}

func TestOneHopLivenessPropagates(t *testing.T) {
	cfg := DefaultOneHopConfig()
	cfg.Slices, cfg.Units = 4, 2
	eng, _, oh := newOneHopEnv(t, 64, 4, cfg)
	eng.Run(5 * sim.Minute)
	// Each node's predecessor pings it, so Δt_alive flows upward; by now
	// every node should have a positive AliveFor for its own successor's
	// record somewhere. Check a node's direct knowledge of its ring
	// successor.
	info, ok := oh.CacheOf(5).Lookup(6)
	if !ok || info.AliveFor == 0 {
		t.Fatalf("node 5 never learned node 6's age: %+v (ok=%v)", info, ok)
	}
}

func TestOneHopLeaderElectionSkipsDead(t *testing.T) {
	cfg := OneHopConfig{
		Slices: 2, Units: 2,
		KeepaliveEvery: 2 * sim.Second, ExchangeEvery: 2 * sim.Second, PingTimeout: sim.Second,
	}
	eng, net, oh := newOneHopEnv(t, 32, 5, cfg)
	eng.Run(30 * sim.Second)
	// Slice 0 covers [0,16), midpoint 8. Kill node 8; once the death
	// propagates, leadership must move to a neighbor.
	before := oh.sliceLeader(1, 0)
	if before != 8 {
		t.Fatalf("initial slice-0 leader = %d, want midpoint 8", before)
	}
	net.SetUp(8, false)
	eng.Run(eng.Now() + 2*sim.Minute)
	after := oh.sliceLeader(1, 0)
	if after == 8 || after == netsim.Invalid {
		t.Fatalf("slice leader did not move off the dead node: %d", after)
	}
}

func TestCacheHeardDownFreshness(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newCache(0, eng, 0)
	c.HeardDirectly(1, 100*sim.Second) // fresh: since 0 now
	// A stale death report (since=50s, i.e. older than our fresh info)
	// must not override.
	c.HeardDown(1, 100*sim.Second, 50*sim.Second)
	if info, _ := c.Lookup(1); info.Down {
		t.Fatal("stale death report overrode fresh liveness")
	}
	// Let our info age, then a fresher death report wins.
	eng.Schedule(60*sim.Second, func() {
		c.HeardDown(1, 110*sim.Second, 10*sim.Second)
	})
	eng.RunAll()
	info, _ := c.Lookup(1)
	if !info.Down {
		t.Fatal("fresh death report ignored")
	}
	// And fresher liveness clears the down flag.
	c.HeardIndirectly(1, 5*sim.Second, 0)
	info, _ = c.Lookup(1)
	if info.Down {
		t.Fatal("fresh liveness did not clear the down flag")
	}
	// Self entries are still ignored.
	c.HeardDown(0, sim.Second, 0)
	if _, ok := c.Lookup(0); ok {
		t.Fatal("self entry created by HeardDown")
	}
}
