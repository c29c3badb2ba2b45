package core

import (
	"fmt"

	"resilientmix/internal/churn"
	"resilientmix/internal/membership"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
	"resilientmix/internal/topology"
)

// MembershipMode selects how nodes learn about each other.
type MembershipMode int

// Membership modes.
const (
	// OracleMembership models the paper's augmented OneHop layer:
	// perfectly fresh, complete membership information (§6.1).
	OracleMembership MembershipMode = iota
	// GossipMembership runs the real epidemic protocol of §4.8 with the
	// liveness piggybacking of §4.9; information is as stale as gossip
	// makes it.
	GossipMembership
	// OneHopMembership runs the simplified hierarchical OneHop protocol
	// (keepalive detection, slice/unit leaders) the paper's evaluation
	// is built on, with explicit leave events.
	OneHopMembership
)

// WorldConfig assembles a simulated P2P anonymizing network.
type WorldConfig struct {
	// N is the number of nodes (the paper uses 1024).
	N int
	// Seed drives all randomness; equal seeds give equal histories.
	Seed int64
	// UniformRTT, when positive, replaces the synthetic King topology
	// (mean RTT 152 ms, as in the paper) with a uniform all-pairs RTT
	// (analytically convenient in tests).
	UniformRTT sim.Time
	// Suite selects the cryptography; nil selects onioncrypt.Null{}
	// (full-fidelity sizes, no arithmetic — right for large sims).
	Suite onioncrypt.Suite
	// Lifetime, when set, enables churn: session times and down
	// intervals are both drawn from this distribution (§6.1).
	Lifetime stats.Dist
	// Pinned nodes never leave (the durability experiment pins the
	// initiator and responder).
	Pinned []netsim.NodeID
	// Membership selects oracle, gossip or OneHop membership; the two
	// protocols run with their packages' default configurations.
	Membership MembershipMode
	// LossRate makes every message independently vanish in flight with
	// this probability — random link loss on top of churn (an extension
	// to the paper's node-failure-only model).
	LossRate float64
	// ConstructTimeout is the construction-ack timeout; zero selects the
	// default.
	ConstructTimeout sim.Time
	// Tracer, when non-nil, receives every trace event from the engine,
	// the network, and the protocol layers. Tracing never consumes
	// engine randomness, so an equal-seed run is bit-identical with or
	// without it.
	Tracer obs.Tracer
	// Metrics is the registry run counters land in; nil creates a
	// private one (always available via World.Reg).
	Metrics *obs.Registry
}

// worldMetrics holds the protocol-layer instruments, resolved once so
// session and receiver hot paths update them without map lookups.
type worldMetrics struct {
	messagesSent      *obs.Counter
	segmentsSent      *obs.Counter
	segmentsAcked     *obs.Counter
	pathsBuilt        *obs.Counter
	pathsDied         *obs.Counter
	pathsReplaced     *obs.Counter
	establishAttempts *obs.Counter
	responsesReceived *obs.Counter
	recvDelivered     *obs.Counter
	reconstructMs     *obs.Histogram
}

// reconstructBounds buckets receiver reconstruction latency (first
// segment to reconstruction) in milliseconds.
var reconstructBounds = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

func newWorldMetrics(reg *obs.Registry) *worldMetrics {
	return &worldMetrics{
		messagesSent:      reg.Counter("session.messages_sent"),
		segmentsSent:      reg.Counter("session.segments_sent"),
		segmentsAcked:     reg.Counter("session.segments_acked"),
		pathsBuilt:        reg.Counter("session.paths_built"),
		pathsDied:         reg.Counter("session.paths_died"),
		pathsReplaced:     reg.Counter("session.paths_replaced"),
		establishAttempts: reg.Counter("session.establish_attempts"),
		responsesReceived: reg.Counter("session.responses_received"),
		recvDelivered:     reg.Counter("recv.delivered"),
		reconstructMs:     reg.Histogram("recv.reconstruct_ms", reconstructBounds),
	}
}

// World is a fully wired simulated network: engine, topology, churn,
// membership, PKI, and one onion node plus receiver application per
// peer. Experiments create sessions on top of it.
type World struct {
	Cfg       WorldConfig
	Eng       *sim.Engine
	Net       *netsim.Network
	Dir       *onion.Directory
	Nodes     []*onion.Node
	Receivers []*Receiver
	// Reg is the world's metrics registry (cfg.Metrics, or a private
	// one). Reports snapshot it after a run.
	Reg *obs.Registry

	oracle *membership.Oracle
	gossip *membership.Gossip
	onehop *membership.OneHop
	churn  *churn.Driver

	tracer obs.Tracer
	m      *worldMetrics

	// cands is the membership view a session's mix choice reads, and
	// relays, lists and exclude the choice's relays, their lists and its
	// exclusion set: one buffer each for every session, since a choice
	// is used up before the next (a path copies its relays).
	cands   []membership.Candidate
	relays  []netsim.NodeID
	lists   [][]netsim.NodeID
	exclude []netsim.NodeID
}

// NewWorld builds and wires a world. Churn (if configured) does not
// start until StartChurn is called, so warm-up scheduling is explicit.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("core: world needs at least 4 nodes, got %d", cfg.N)
	}
	if cfg.Suite == nil {
		cfg.Suite = onioncrypt.Null{}
	}
	if cfg.ConstructTimeout <= 0 {
		cfg.ConstructTimeout = onion.DefaultConstructTimeout
	}
	eng := sim.NewEngine(cfg.Seed)
	var topo *topology.Matrix
	var err error
	if cfg.UniformRTT > 0 {
		topo, err = topology.Uniform(cfg.N, cfg.UniformRTT)
	} else {
		topo, err = topology.Generate(cfg.N, topology.DefaultMeanRTT, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	net := netsim.New(eng, topo)
	if cfg.LossRate > 0 {
		net.SetLossRate(cfg.LossRate)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	eng.SetTracer(cfg.Tracer)
	net.SetTracer(cfg.Tracer)
	net.BindMetrics(reg)
	dir, err := onion.NewDirectory(cfg.Suite, eng.RNG(), cfg.N)
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg:    cfg,
		Eng:    eng,
		Net:    net,
		Dir:    dir,
		Reg:    reg,
		tracer: cfg.Tracer,
		m:      newWorldMetrics(reg),
	}

	switch cfg.Membership {
	case OracleMembership:
		w.oracle = membership.NewOracle(net)
	case GossipMembership:
		w.gossip, err = membership.NewGossip(net, membership.DefaultGossipConfig())
		if err != nil {
			return nil, err
		}
	case OneHopMembership:
		w.onehop, err = membership.NewOneHop(net, membership.DefaultOneHopConfig())
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown membership mode %d", cfg.Membership)
	}

	for i := 0; i < cfg.N; i++ {
		id := netsim.NodeID(i)
		mux := netsim.NewMux()
		recv := NewReceiver(id, eng, nil)
		recv.bindObs(cfg.Tracer, w.m)
		node := onion.NewNode(net, id, dir, mux, onion.NodeConfig{
			ConstructTimeout: cfg.ConstructTimeout,
			OnData:           recv.HandleData,
		})
		if w.gossip != nil {
			w.gossip.Attach(id, mux)
		}
		if w.onehop != nil {
			w.onehop.Attach(id, mux)
		}
		net.SetHandler(id, mux)
		w.Nodes = append(w.Nodes, node)
		w.Receivers = append(w.Receivers, recv)
	}

	if w.gossip != nil {
		w.gossip.SeedFull()
		w.gossip.Start()
	}
	if w.onehop != nil {
		w.onehop.SeedFull()
		w.onehop.Start()
	}

	if cfg.Lifetime != nil {
		w.churn, err = churn.NewDriver(net, cfg.Lifetime, churn.Pin(cfg.Pinned...))
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// StartChurn begins the configured churn process. It is an error if the
// world was built without a lifetime distribution.
func (w *World) StartChurn() error {
	if w.churn == nil {
		return fmt.Errorf("core: world has no churn configured")
	}
	return w.churn.Start()
}

// Provider returns node id's membership provider.
func (w *World) Provider(id netsim.NodeID) membership.Provider {
	switch {
	case w.oracle != nil:
		return w.oracle
	case w.gossip != nil:
		return w.gossip.CacheOf(id)
	default:
		return w.onehop.CacheOf(id)
	}
}

// Run advances the simulation to the given virtual time.
func (w *World) Run(until sim.Time) { w.Eng.Run(until) }

// establishStep is how far Establish runs the engine between looks at
// the session. Establishment is noticed at the first step boundary
// after it concludes, so the step also decides when a caller's first
// message leaves.
const establishStep = 10 * sim.Second

// Establish starts s, which it sets OnEstablished on, and runs the
// engine in 10 s steps until its establishment concludes, then returns
// OnEstablished's outcome. Each construction attempt resolves within
// the world's construct timeout, so establishment concludes within
// MaxEstablishAttempts of them; running past that budget is an error.
func (w *World) Establish(s *Session) (ok bool, attempts int, err error) {
	concluded := false
	s.OnEstablished = func(o bool, a int) { ok, attempts, concluded = o, a, true }
	budget := sim.Time(s.params.MaxEstablishAttempts) * w.Cfg.ConstructTimeout
	deadline := w.Eng.Now() + budget
	s.Establish()
	for !concluded {
		if w.Eng.Now() > deadline {
			return false, s.stats.EstablishAttempts, fmt.Errorf("core: establishment still open %v after its %d-attempt budget of %v",
				w.Eng.Now()-deadline, s.params.MaxEstablishAttempts, budget)
		}
		w.Run(w.Eng.Now() + establishStep)
	}
	return ok, attempts, nil
}
