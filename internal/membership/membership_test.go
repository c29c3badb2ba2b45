package membership

import (
	"reflect"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

func newEnv(t *testing.T, n int, seed int64) (*sim.Engine, *netsim.Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	lat, err := topology.Uniform(n, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return eng, netsim.New(eng, lat)
}

func TestCacheHeardDirectly(t *testing.T) {
	eng, _ := newEnv(t, 4, 1)
	c := newCache(0, eng, 0)
	eng.Schedule(10*sim.Second, func() {
		c.HeardDirectly(1, 500*sim.Second)
	})
	eng.RunAll()
	info, ok := c.Lookup(1)
	if !ok {
		t.Fatal("entry missing")
	}
	if info.AliveFor != 500*sim.Second || info.Since != 0 || info.LastHeard != 10*sim.Second {
		t.Fatalf("info = %+v", info)
	}
	if c.Q(1) != 1 {
		t.Fatalf("q = %g immediately after direct contact, want 1", c.Q(1))
	}
}

func TestCacheIgnoresSelf(t *testing.T) {
	eng, _ := newEnv(t, 4, 1)
	c := newCache(2, eng, 0)
	c.HeardDirectly(2, sim.Hour)
	c.HeardIndirectly(2, sim.Hour, 0)
	if c.Len() != 0 {
		t.Fatal("cache stored an entry for its own node")
	}
}

func TestCacheIndirectFreshnessRule(t *testing.T) {
	// §4.9: a received entry replaces the stored one only if its
	// Δt_since is smaller (fresher).
	eng, _ := newEnv(t, 4, 1)
	c := newCache(0, eng, 0)
	c.HeardIndirectly(1, 100*sim.Second, 50*sim.Second)
	// Staler information must be ignored.
	c.HeardIndirectly(1, 999*sim.Second, 80*sim.Second)
	info, _ := c.Lookup(1)
	if info.AliveFor != 100*sim.Second {
		t.Fatalf("stale gossip overwrote fresher entry: %+v", info)
	}
	// Fresher information must win.
	c.HeardIndirectly(1, 200*sim.Second, 10*sim.Second)
	info, _ = c.Lookup(1)
	if info.AliveFor != 200*sim.Second || info.Since != 10*sim.Second {
		t.Fatalf("fresh gossip did not overwrite: %+v", info)
	}
}

func TestCacheFreshnessAgesWithLocalClock(t *testing.T) {
	// A stored entry becomes less fresh as local time passes (Equation 3)
	// so gossip that would have been stale earlier can win later.
	eng, _ := newEnv(t, 4, 1)
	c := newCache(0, eng, 0)
	c.HeardIndirectly(1, 100*sim.Second, 0) // perfectly fresh at t=0
	eng.Schedule(60*sim.Second, func() {
		// Our entry is now effectively 60s stale; a 30s-stale report wins.
		c.HeardIndirectly(1, 130*sim.Second, 30*sim.Second)
	})
	eng.RunAll()
	info, _ := c.Lookup(1)
	if info.AliveFor != 130*sim.Second {
		t.Fatalf("aged entry was not replaced: %+v", info)
	}
}

func TestCacheUnknownNodeQ(t *testing.T) {
	eng, _ := newEnv(t, 4, 1)
	c := newCache(0, eng, 0)
	if c.Q(3) != 0 {
		t.Fatal("unknown node should have q = 0")
	}
}

func TestCandidatesExcludeSelfAndSorted(t *testing.T) {
	eng, _ := newEnv(t, 8, 1)
	c := newCache(0, eng, 0)
	for i := 7; i >= 1; i-- {
		c.HeardDirectly(netsim.NodeID(i), sim.Time(i)*sim.Second)
	}
	cands := c.AppendCandidates(nil, 0)
	if len(cands) != 7 {
		t.Fatalf("got %d candidates, want 7", len(cands))
	}
	for i, cd := range cands {
		if cd.ID == 0 {
			t.Fatal("self in candidates")
		}
		if i > 0 && cands[i-1].ID >= cd.ID {
			t.Fatal("candidates not sorted by ID")
		}
	}
}

func TestGossipEntriesAgeSince(t *testing.T) {
	eng, _ := newEnv(t, 4, 1)
	c := newCache(0, eng, 0)
	c.HeardIndirectly(1, 100*sim.Second, 20*sim.Second)
	var entries []GossipEntry
	eng.Schedule(30*sim.Second, func() { entries = c.appendGossipEntries(nil, new([]netsim.NodeID), 10) })
	eng.RunAll()
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	if entries[0].Since != 50*sim.Second {
		t.Fatalf("piggybacked since = %v, want 20s stored + 30s local", entries[0].Since)
	}
}

func TestGossipEntriesBounded(t *testing.T) {
	eng, _ := newEnv(t, 64, 1)
	c := newCache(0, eng, 0)
	for i := 1; i < 64; i++ {
		c.HeardDirectly(netsim.NodeID(i), sim.Second)
	}
	if got := len(c.appendGossipEntries(nil, new([]netsim.NodeID), 16)); got != 16 {
		t.Fatalf("appendGossipEntries returned %d, want 16", got)
	}
	if got := len(c.appendGossipEntries(nil, new([]netsim.NodeID), 1000)); got != 63 {
		t.Fatalf("appendGossipEntries returned %d, want all 63", got)
	}
}

func TestOracleTracksSessions(t *testing.T) {
	eng, net := newEnv(t, 4, 1)
	o := NewOracle(net)
	eng.Schedule(100*sim.Second, func() { net.SetUp(1, false) })
	eng.Schedule(150*sim.Second, func() { net.SetUp(1, true) })
	eng.Schedule(175*sim.Second, func() {
		info := o.Info(1)
		if info.AliveFor != 25*sim.Second || info.Since != 0 {
			t.Errorf("rejoined node info = %+v, want fresh 25s session", info)
		}
	})
	eng.Schedule(120*sim.Second, func() {
		info := o.Info(1)
		if info.AliveFor != 100*sim.Second || info.Since != 20*sim.Second {
			t.Errorf("down node info = %+v, want alive=100s since=20s", info)
		}
	})
	eng.RunAll()
}

func TestOracleCandidates(t *testing.T) {
	eng, net := newEnv(t, 8, 1)
	o := NewOracle(net)
	eng.Schedule(sim.Hour, func() {
		net.SetUp(3, false)
	})
	eng.Schedule(2*sim.Hour, func() {
		cands := o.AppendCandidates(nil, 0)
		if len(cands) != 7 {
			t.Errorf("%d candidates, want 7", len(cands))
		}
		for _, cd := range cands {
			switch cd.ID {
			case 0:
				t.Error("self in candidates")
			case 3:
				if cd.Q >= 0.9 {
					t.Errorf("down node q = %g, want decayed", cd.Q)
				}
			default:
				if cd.Q != 1 {
					t.Errorf("up node %d q = %g, want 1", cd.ID, cd.Q)
				}
				if cd.AliveFor != 2*sim.Hour {
					t.Errorf("up node %d aliveFor = %v", cd.ID, cd.AliveFor)
				}
			}
		}
	})
	eng.RunAll()
}

// TestAppendCandidates checks that both providers append the same set,
// into the buffer they are handed, whatever it already holds.
func TestAppendCandidates(t *testing.T) {
	eng, net := newEnv(t, 8, 1)
	c := newCache(0, eng, 0)
	for i := 1; i < 8; i++ {
		c.HeardDirectly(netsim.NodeID(i), sim.Time(i)*sim.Second)
	}
	for name, p := range map[string]Provider{"oracle": NewOracle(net), "cache": c} {
		buf := make([]Candidate, 1, 16)
		got := p.AppendCandidates(buf, 0)
		if want := p.AppendCandidates(nil, 0); len(want) != 7 || !reflect.DeepEqual(got[1:], want) {
			t.Errorf("%s: appended %v, into an empty buffer %v", name, got[1:], want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("%s: appended into a new buffer", name)
		}
	}
}

func TestGossipConfigValidation(t *testing.T) {
	_, net := newEnv(t, 4, 1)
	bad := []GossipConfig{
		{Interval: 0, Fanout: 1, MaxEntries: 1},
		{Interval: sim.Second, Fanout: 0, MaxEntries: 1},
		{Interval: sim.Second, Fanout: 1, MaxEntries: 0},
	}
	for _, cfg := range bad {
		if _, err := NewGossip(net, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGossipDisseminatesLiveness(t *testing.T) {
	eng, net := newEnv(t, 16, 7)
	g, err := NewGossip(net, DefaultGossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		mux := netsim.NewMux()
		g.Attach(netsim.NodeID(i), mux)
		net.SetHandler(netsim.NodeID(i), mux)
	}
	g.SeedFull()
	g.Start()
	eng.Run(5 * sim.Minute)
	// After five minutes of gossip every node should know node 5's
	// session age within a couple of rounds' staleness.
	c := g.CacheOf(9)
	info, ok := c.Lookup(5)
	if !ok {
		t.Fatal("node 9 never learned about node 5")
	}
	if info.AliveFor == 0 {
		t.Fatal("liveness info never updated beyond the seed")
	}
	if q := c.Q(5); q < 0.9 {
		t.Fatalf("q for a continuously-up node = %g, want near 1", q)
	}
}

func TestGossipStalenessAfterDeath(t *testing.T) {
	eng, net := newEnv(t, 16, 8)
	g, err := NewGossip(net, DefaultGossipConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		mux := netsim.NewMux()
		g.Attach(netsim.NodeID(i), mux)
		net.SetHandler(netsim.NodeID(i), mux)
	}
	g.SeedFull()
	g.Start()
	eng.Run(5 * sim.Minute)
	qBefore := g.CacheOf(2).Q(11)
	net.SetUp(11, false)
	eng.Run(15 * sim.Minute)
	qAfter := g.CacheOf(2).Q(11)
	if qAfter >= qBefore {
		t.Fatalf("q did not decay after node death: before=%g after=%g", qBefore, qAfter)
	}
}

func TestGossipMsgWireSize(t *testing.T) {
	m := GossipMsg{Entries: make([]GossipEntry, 3)}
	if m.WireSize() != 4+3*20 {
		t.Fatalf("WireSize = %d, want 64", m.WireSize())
	}
}
