package membership

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/predictor"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// mapCache is Cache as it was before entries were indexed by id: a map,
// sorted on every walk. It is the reference the id-indexed cache must
// match answer for answer and random draw for random draw.
type mapCache struct {
	self    netsim.NodeID
	eng     *sim.Engine
	entries map[netsim.NodeID]predictor.Info
}

func newMapCache(self netsim.NodeID, eng *sim.Engine) *mapCache {
	return &mapCache{self: self, eng: eng, entries: make(map[netsim.NodeID]predictor.Info)}
}

func (c *mapCache) Len() int { return len(c.entries) }

func (c *mapCache) Lookup(id netsim.NodeID) (predictor.Info, bool) {
	info, ok := c.entries[id]
	return info, ok
}

func (c *mapCache) HeardDirectly(id netsim.NodeID, aliveFor sim.Time) {
	if id == c.self {
		return
	}
	c.entries[id] = predictor.Info{AliveFor: aliveFor, Since: 0, LastHeard: c.eng.Now()}
}

func (c *mapCache) HeardIndirectly(id netsim.NodeID, aliveFor, since sim.Time) {
	if id == c.self {
		return
	}
	now := c.eng.Now()
	if cur, ok := c.entries[id]; ok && since >= predictor.EffectiveSince(cur, now) {
		return
	}
	c.entries[id] = predictor.Info{AliveFor: aliveFor, Since: since, LastHeard: now}
}

func (c *mapCache) HeardDown(id netsim.NodeID, aliveFor, since sim.Time) {
	if id == c.self {
		return
	}
	now := c.eng.Now()
	if cur, ok := c.entries[id]; ok && since >= predictor.EffectiveSince(cur, now) {
		return
	}
	c.entries[id] = predictor.Info{AliveFor: aliveFor, Since: since, LastHeard: now, Down: true}
}

func (c *mapCache) Q(id netsim.NodeID) float64 {
	info, ok := c.entries[id]
	if !ok {
		return 0
	}
	return predictor.Q(info, c.eng.Now())
}

func (c *mapCache) Candidates(self netsim.NodeID) []Candidate {
	now := c.eng.Now()
	out := make([]Candidate, 0, len(c.entries))
	for id, info := range c.entries {
		if id == self {
			continue
		}
		out = append(out, Candidate{ID: id, Q: predictor.Q(info, now), AliveFor: info.AliveFor})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *mapCache) gossipEntries(max int) []GossipEntry {
	now := c.eng.Now()
	ids := make([]netsim.NodeID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > max {
		rng := c.eng.RNG()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:max]
	}
	out := make([]GossipEntry, len(ids))
	for i, id := range ids {
		info := c.entries[id]
		out[i] = GossipEntry{ID: id, AliveFor: info.AliveFor, Since: predictor.EffectiveSince(info, now)}
	}
	return out
}

// round is Gossip.round as it was over the map cache: the message it
// built and the targets it drew, in order.
func (c *mapCache) round(aliveFor sim.Time, cfg GossipConfig) (GossipMsg, []netsim.NodeID) {
	cands := c.Candidates(c.self)
	if len(cands) == 0 {
		return GossipMsg{}, nil
	}
	rng := c.eng.RNG()
	entries := c.gossipEntries(cfg.MaxEntries)
	self := GossipEntry{ID: c.self, AliveFor: aliveFor, Since: 0}
	msg := GossipMsg{Entries: append([]GossipEntry{self}, entries...)}
	var targets []netsim.NodeID
	for f := 0; f < cfg.Fanout; f++ {
		targets = append(targets, cands[rng.Intn(len(cands))].ID)
	}
	return msg, targets
}

// cachePair drives an id-indexed cache and the map reference, each on
// its own equal-seeded engine, through the same random merges and clock
// steps.
type cachePair struct {
	t          *testing.T
	n          int
	ops        *rand.Rand
	engA, engB *sim.Engine
	got        *Cache
	want       *mapCache
}

// step applies one random operation to both caches.
func (p *cachePair) step() {
	id := netsim.NodeID(p.ops.Intn(p.n))
	aliveFor := sim.Time(p.ops.Int63n(int64(sim.Hour)))
	since := sim.Time(p.ops.Int63n(int64(10 * sim.Minute)))
	switch k := p.ops.Intn(20); {
	case k < 6:
		p.got.HeardDirectly(id, aliveFor)
		p.want.HeardDirectly(id, aliveFor)
	case k < 13:
		p.got.HeardIndirectly(id, aliveFor, since)
		p.want.HeardIndirectly(id, aliveFor, since)
	case k < 16:
		p.got.HeardDown(id, aliveFor, since)
		p.want.HeardDown(id, aliveFor, since)
	default:
		dt := sim.Time(p.ops.Int63n(int64(2 * sim.Minute)))
		p.engA.Run(p.engA.Now() + dt)
		p.engB.Run(p.engB.Now() + dt)
	}
}

// check compares every answer the two caches give, gossip entries
// included (which draws from each engine's RNG when it shuffles).
func (p *cachePair) check(at int) {
	t := p.t
	t.Helper()
	if a, b := p.got.Len(), p.want.Len(); a != b {
		t.Fatalf("step %d: Len %d, reference %d", at, a, b)
	}
	for id := netsim.NodeID(-1); id <= netsim.NodeID(p.n); id++ {
		ai, aok := p.got.Lookup(id)
		bi, bok := p.want.Lookup(id)
		if ai != bi || aok != bok {
			t.Fatalf("step %d: Lookup(%d) = %+v %v, reference %+v %v", at, id, ai, aok, bi, bok)
		}
		if a, b := p.got.Q(id), p.want.Q(id); a != b {
			t.Fatalf("step %d: Q(%d) = %g, reference %g", at, id, a, b)
		}
	}
	for _, self := range []netsim.NodeID{p.got.self, netsim.NodeID(at % p.n)} {
		if a, b := p.got.AppendCandidates(nil, self), p.want.Candidates(self); !slices.Equal(a, b) {
			t.Fatalf("step %d: AppendCandidates(%d) = %v, reference %v", at, self, a, b)
		}
	}
	max := 1 + p.ops.Intn(p.n)
	if a, b := p.got.appendGossipEntries(nil, new([]netsim.NodeID), max), p.want.gossipEntries(max); !slices.Equal(a, b) {
		t.Fatalf("step %d: appendGossipEntries(%d) = %v, reference %v", at, max, a, b)
	}
}

// TestCacheMatchesMapReference pins the id-indexed cache to the map it
// replaced, over random merge sequences: every answer equal, and the
// engines' RNGs in the same state at the end (no draw added, lost or
// moved).
func TestCacheMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		const n = 40
		p := &cachePair{
			t: t, n: n, ops: rand.New(rand.NewSource(100 + seed)),
			engA: sim.NewEngine(seed), engB: sim.NewEngine(seed),
		}
		self := netsim.NodeID(seed * 7 % n)
		p.got, p.want = newCache(self, p.engA, 0), newMapCache(self, p.engB)
		for i := 0; i < 1500; i++ {
			p.step()
			if i%5 == 0 {
				p.check(i)
			}
		}
		if a, b := p.engA.RNG().Int63(), p.engB.RNG().Int63(); a != b {
			t.Fatalf("seed %d: engine RNGs diverged", seed)
		}
	}
}

// TestGossipRoundMatchesMapReference pins one Gossip.round against the
// round the map cache made: the same message to the same targets, and
// the engine RNG left in the same state, both with fewer known nodes
// than a message carries (no shuffle) and with more.
func TestGossipRoundMatchesMapReference(t *testing.T) {
	cfg := GossipConfig{Interval: 5 * sim.Second, Fanout: 3, MaxEntries: 16}
	for seed := int64(1); seed <= 6; seed++ {
		const n = 64
		eng := sim.NewEngine(seed)
		lat, err := topology.Uniform(n, 100*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		net := netsim.New(eng, lat)
		g, err := NewGossip(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		type delivery struct {
			to  netsim.NodeID
			msg GossipMsg
		}
		var got []delivery
		for i := 0; i < n; i++ {
			to := netsim.NodeID(i)
			net.SetHandler(to, netsim.HandlerFunc(func(_ netsim.NodeID, m netsim.Message) {
				got = append(got, delivery{to, m.Payload.(GossipMsg)})
			}))
		}
		const self = 5
		p := &cachePair{
			t: t, n: n, ops: rand.New(rand.NewSource(200 + seed)),
			engA: eng, engB: sim.NewEngine(seed),
			got: g.CacheOf(self), want: newMapCache(self, nil),
		}
		p.want.eng = p.engB
		steps := 12 // a few known nodes: fewer than MaxEntries
		if seed%2 == 0 {
			steps = 400
		}
		for i := 0; i < steps; i++ {
			p.step()
		}
		if known := p.want.Len(); known == 0 || (known > cfg.MaxEntries) != (seed%2 == 0) {
			t.Fatalf("seed %d: %d known nodes, not the case this seed is for", seed, known)
		}
		wantMsg, wantTargets := p.want.round(g.AliveFor(self), cfg)
		g.round(self)
		if a, b := p.engA.RNG().Int63(), p.engB.RNG().Int63(); a != b {
			t.Fatalf("seed %d (%d known): round left the engine RNG in another state than the reference's", seed, p.want.Len())
		}
		eng.RunAll()
		var targets []netsim.NodeID
		for _, d := range got {
			targets = append(targets, d.to)
			if !slices.Equal(d.msg.Entries, wantMsg.Entries) {
				t.Fatalf("seed %d: message %v, reference %v", seed, d.msg.Entries, wantMsg.Entries)
			}
		}
		slices.Sort(targets)
		slices.Sort(wantTargets)
		if !slices.Equal(targets, wantTargets) {
			t.Fatalf("seed %d: targets %v, reference %v", seed, targets, wantTargets)
		}
		if len(targets) != cfg.Fanout {
			t.Fatalf("seed %d: %d deliveries, want %d", seed, len(targets), cfg.Fanout)
		}
	}
}

// BenchmarkGossipRound prices one node's gossip round in a 1024-node
// world whose caches were all seeded full, with the merges it causes at
// its targets: the unit of gossip work in make repro's gossip worlds.
func BenchmarkGossipRound(b *testing.B) {
	const n = 1024
	eng := sim.NewEngine(1)
	lat, err := topology.Uniform(n, 100*sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(eng, lat)
	g, err := NewGossip(net, DefaultGossipConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mux := netsim.NewMux()
		g.Attach(netsim.NodeID(i), mux)
		net.SetHandler(netsim.NodeID(i), mux)
	}
	g.SeedFull()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.round(netsim.NodeID(i % n))
		if i%64 == 63 {
			eng.Run(eng.Now() + sim.Second)
		}
	}
	eng.Run(eng.Now() + sim.Second)
}
