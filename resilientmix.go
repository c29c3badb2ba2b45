package resilientmix

import (
	"io"

	"resilientmix/internal/analytic"
	"resilientmix/internal/core"
	"resilientmix/internal/erasure"
	"resilientmix/internal/experiments"
	"resilientmix/internal/membership"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/predictor"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// NodeID identifies a node in a simulated network; IDs are dense in
// [0, N).
type NodeID = netsim.NodeID

// Time is virtual simulation time in microseconds. Use the duration
// constants to build values.
type Time = sim.Time

// Virtual-time duration constants.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Protocol selects one of the paper's three protocols.
type Protocol = core.Protocol

// The three protocols of the paper's evaluation.
const (
	// CurMix is classic single-path onion routing (the baseline).
	CurMix = core.CurMix
	// SimRep replicates the full message over each of k paths.
	SimRep = core.SimRep
	// SimEra spreads erasure-coded segments over k disjoint paths — the
	// paper's contribution.
	SimEra = core.SimEra
)

// Strategy selects how relay nodes are picked.
type Strategy = mixchoice.Strategy

// Mix choice strategies (§4.9).
const (
	// Random draws relays uniformly from the membership cache with no
	// liveness filtering — what existing protocols do.
	Random = mixchoice.Random
	// Biased ranks relays by the node liveness predictor.
	Biased = mixchoice.Biased
)

// Params configures a protocol session: protocol, k, r, L, mix strategy
// and failure-handling knobs. The zero value of each field selects the
// paper's default.
type Params = core.Params

// Session is an initiator's communication session with one responder:
// it owns k path slots, codes and allocates segments, detects path
// failures from end-to-end acks, and can proactively replace paths.
type Session = core.Session

// SessionStats aggregates a session's counters.
type SessionStats = core.SessionStats

// Receiver is the responder-side application endpoint.
type Receiver = core.Receiver

// Rendezvous glues two anonymous path sets together for mutual
// anonymity (§3's "additional level of redirection"): create one with
// Network.NewRendezvous, register hidden services with
// Session.RegisterService, contact them with Session.SendServiceMessage.
type Rendezvous = core.Rendezvous

// CoverAgent emits cover traffic from a node (§4.6).
type CoverAgent = core.CoverAgent

// CoverConfig tunes a cover agent.
type CoverConfig = core.CoverConfig

// MembershipMode selects oracle (OneHop-like, perfectly fresh) or
// gossip (epidemic, realistically stale) membership.
type MembershipMode = core.MembershipMode

// Membership modes.
const (
	OracleMembership = core.OracleMembership
	GossipMembership = core.GossipMembership
	// OneHopMembership runs the simplified hierarchical OneHop protocol
	// the paper's evaluation is built on (keepalive detection,
	// slice/unit leaders, explicit leave events).
	OneHopMembership = core.OneHopMembership
)

// NetworkConfig assembles a simulated P2P anonymizing network; the zero
// value of most fields selects the paper's §6.1 setup.
type NetworkConfig = core.WorldConfig

// Network is a fully wired simulated network. Create sessions with
// NewSession and establish them with Establish, start churn with
// StartChurn, and advance virtual time with Run.
type Network = core.World

// NewNetwork builds a simulated network from the configuration.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return core.NewWorld(cfg) }

// Crypto suites for NetworkConfig.Suite.
var (
	// SuiteECIES is real cryptography: X25519 + SHA-256 KDF + AES-GCM.
	SuiteECIES onioncrypt.Suite = onioncrypt.ECIES{}
	// SuiteNull has identical wire overheads but no arithmetic — the
	// right choice for large simulations.
	SuiteNull onioncrypt.Suite = onioncrypt.Null{}
)

// LifetimeDist is a node session-time distribution usable as
// NetworkConfig.Lifetime.
type LifetimeDist = stats.Dist

// ParetoLifetime returns the paper's churn model: Pareto session times
// with the given median (the paper uses one hour and shape alpha = 1).
func ParetoLifetime(alpha float64, median Time) (LifetimeDist, error) {
	return stats.ParetoWithMedian(alpha, median.Seconds())
}

// ExponentialLifetime returns memoryless session times with the given
// mean (Table 4's alternative).
func ExponentialLifetime(mean Time) (LifetimeDist, error) {
	return stats.NewExponential(mean.Seconds())
}

// UniformLifetime returns uniformly distributed session times on
// [lo, hi] (Table 4's adversarial case: old nodes die sooner).
func UniformLifetime(lo, hi Time) (LifetimeDist, error) {
	return stats.NewUniform(lo.Seconds(), hi.Seconds())
}

// ErasureCode is a reusable (m, n) systematic Reed-Solomon code: Split
// produces n segments, any m of which Reconstruct the message.
type ErasureCode = erasure.Code

// ErasureSegment is one coded segment.
type ErasureSegment = erasure.Segment

// NewErasureCode builds an (m, n) code (1 <= m <= n <= 256).
func NewErasureCode(m, n int) (*ErasureCode, error) { return erasure.New(m, n) }

// LivenessInfo is a cached node's liveness triple (§4.9).
type LivenessInfo = predictor.Info

// LivenessPredictor computes q = Δt_alive / (Δt_alive + Δt_since +
// (now - t_last)) — Equation 3; rank relays by it, highest first.
func LivenessPredictor(info LivenessInfo, now Time) float64 {
	return predictor.Q(info, now)
}

// AliveProbability converts the predictor q into the survival
// probability p = q^alpha of Equation 1.
func AliveProbability(q, alpha float64) float64 { return predictor.AliveProb(q, alpha) }

// DeliveryProbability returns the closed-form P(k) of §4.7: the
// probability that at least k/r of k paths deliver when each path
// succeeds independently with probability pathProb.
func DeliveryProbability(k, r int, pathProb float64) (float64, error) {
	return analytic.PSuccess(k, r, pathProb)
}

// PathSuccessProbability returns p = pa^L for per-node availability pa
// and path length L.
func PathSuccessProbability(pa float64, l int) float64 {
	return analytic.PathSuccessProb(pa, l)
}

// AllocationRegime classifies (p, r) into the paper's Observations 1-3,
// the guideline for choosing k (§4.7).
func AllocationRegime(pathProb float64, r int) analytic.Observation {
	return analytic.ClassifyObservation(pathProb, r)
}

// InitiatorAnonymity returns Equation 4 of §5: the probability that an
// attacker controlling fraction f of N nodes correctly identifies the
// initiator of a length-L path.
func InitiatorAnonymity(n int, f float64, l int) (float64, error) {
	return analytic.InitiatorProbability(n, f, l)
}

// Candidate is a node as seen by mix choice.
type Candidate = membership.Candidate

// SelectPaths picks k node-disjoint paths of l relays from candidates
// under the given strategy, excluding the listed nodes. Exposed for
// building custom protocols on the substrate.
var SelectPaths = mixchoice.SelectPaths

// Tracer receives structured trace events from every instrumented
// layer (engine, network, sessions, receivers). Set one on
// NetworkConfig.Tracer.
type Tracer = obs.Tracer

// TraceEvent is one structured trace event; see internal/obs for the
// event taxonomy and field conventions.
type TraceEvent = obs.Event

// TraceWriter streams trace events as deterministic JSONL.
type TraceWriter = obs.JSONL

// NewTraceWriter returns a tracer streaming JSONL to w; call Flush
// when the run ends.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewJSONL(w) }

// MultiTracer fans events out to several tracers (nils are skipped).
var MultiTracer = obs.Multi

// NoopTracer discards every event; it measures the cost of an
// installed-but-trivial tracer against the nil fast path.
type NoopTracer = obs.Noop

// ParseTrace reads back a JSONL trace written by a TraceWriter.
var ParseTrace = obs.ParseJSONL

// TraceCollector keeps every emitted event in memory, for in-process
// analysis with AnalyzeTrace.
type TraceCollector = obs.Collector

// NewTraceCollector returns an empty in-memory trace collector.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// TraceFile is a JSONL trace sink on disk; paths ending in ".gz" are
// transparently gzip-compressed.
type TraceFile = obs.TraceFile

// CreateTraceFile opens a trace sink at path (gzip when the path ends
// in ".gz"); call Close when the run ends.
var CreateTraceFile = obs.CreateTraceFile

// TraceAnalysis is the result of offline trace analytics: per-stream
// causal timelines, latency attribution and anonymity observables. See
// internal/obs/analyze and cmd/anontrace.
type TraceAnalysis = analyze.Result

// AnalyzeTrace reconstructs every tagged message stream from an
// in-memory trace.
var AnalyzeTrace = analyze.FromEvents

// ReconcileAnalysis cross-checks a trace analysis against a run
// report's registry aggregates; it returns one description per
// mismatch, empty when the two views agree exactly.
var ReconcileAnalysis = analyze.Reconcile

// MetricsRegistry is a named collection of counters, gauges and
// histograms; worlds record run aggregates into one.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunReport is the machine-readable outcome of one run, written by the
// -report flag of cmd/anonsim; equal seeds write equal files.
type RunReport = obs.Report

// StartProfiles starts CPU and/or heap profiling; the returned stop
// function must run on every exit path.
var StartProfiles = obs.StartProfiles

// ExperimentOptions tunes reproduction scale (Quick shrinks everything).
type ExperimentOptions = experiments.Options

// ExperimentResult is a rendered table/figure reproduction.
type ExperimentResult = experiments.Result

// ExperimentIDs lists the reproducible artifacts: the paper's figures
// and tables, then the extensions and the ablations.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one of the paper's tables or figures.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}

// RunAllExperiments reproduces every table and figure in order.
func RunAllExperiments(opts ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(opts)
}

// RenderExperiments renders results as aligned text tables.
func RenderExperiments(w io.Writer, results []*ExperimentResult) error {
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return err
		}
	}
	return nil
}
