package core

import (
	"fmt"

	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// CoverConfig tunes a node's cover traffic (§4.6): "each node, at all
// times, generates cover messages and sends them over k paths to a
// randomly chosen destination. The k paths used for cover traffics
// consists of random nodes."
type CoverConfig struct {
	// Interval between cover messages; zero selects one per minute.
	Interval sim.Time
	// K and R shape the cover paths (of DefaultL relays); zero K selects
	// 2, zero R selects K (a SimEra-shaped dummy). The paper notes k need
	// not be system-wide: "each node may pick a value corresponding to
	// its bandwidth constraints".
	K, R int
}

// coverMessageSize is the size of each dummy message: the paper's
// default message size, so cover and real traffic look alike.
const coverMessageSize = 1024

// CoverStats counts a cover agent's activity.
type CoverStats struct {
	Rounds        int
	Established   int
	MessagesSent  int
	BandwidthByte int // accumulated lazily from the dummy sessions
}

// CoverAgent emits cover traffic from one node. Cover messages use the
// exact same session machinery and wire formats as real traffic, so a
// passive observer sees no difference (the indistinguishability claim
// of §4.6); only the sending node knows they are dummies.
type CoverAgent struct {
	w        *World
	id       netsim.NodeID
	cfg      CoverConfig
	stats    CoverStats
	timer    sim.Timer
	sessions []*Session
}

// NewCoverAgent creates (but does not start) a cover agent.
func (w *World) NewCoverAgent(id netsim.NodeID, cfg CoverConfig) (*CoverAgent, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Minute
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	if cfg.R == 0 {
		cfg.R = cfg.K
	}
	if cfg.K%cfg.R != 0 {
		return nil, fmt.Errorf("core: cover K=%d must be a multiple of R=%d", cfg.K, cfg.R)
	}
	return &CoverAgent{w: w, id: id, cfg: cfg}, nil
}

// Start begins periodic cover rounds.
func (a *CoverAgent) Start() {
	offset := sim.Time(a.w.Eng.RNG().Int63n(int64(a.cfg.Interval)))
	a.timer = a.w.Eng.Every(offset, a.cfg.Interval, a.round)
}

// Stop cancels future rounds.
func (a *CoverAgent) Stop() {
	a.timer.Cancel()
}

// Stats returns a snapshot of the agent's counters. Bandwidth is
// aggregated across all dummy sessions at call time, since flows fill in
// as messages propagate through the network.
func (a *CoverAgent) Stats() CoverStats {
	st := a.stats
	for _, s := range a.sessions {
		ss := s.Stats()
		st.BandwidthByte += ss.DataFlow.Bytes + ss.ConstructFlow.Bytes
	}
	return st
}

func (a *CoverAgent) round() {
	if !a.w.Net.IsUp(a.id) {
		return
	}
	a.stats.Rounds++
	// Random destination from the membership view.
	cands := a.w.Provider(a.id).AppendCandidates(nil, a.id)
	if len(cands) == 0 {
		return
	}
	dest := cands[a.w.Eng.RNG().Intn(len(cands))].ID
	sess, err := a.w.NewSession(a.id, dest, Params{
		Protocol: SimEra,
		K:        a.cfg.K,
		R:        a.cfg.R,
		Strategy: mixchoice.Random, // §4.6: cover paths consist of random nodes
	})
	if err != nil {
		return
	}
	msg := make([]byte, coverMessageSize)
	a.w.Eng.RNG().Read(msg)
	sess.OnEstablished = func(ok bool, _ int) {
		if !ok {
			return
		}
		a.stats.Established++
		if _, err := sess.SendMessage(msg); err == nil {
			a.stats.MessagesSent++
		}
	}
	a.sessions = append(a.sessions, sess)
	sess.Establish()
}
