// Package core implements the paper's three anonymity protocols and the
// machinery the evaluation exercises:
//
//   - CurMix: current mix-based protocols — a single onion path carrying
//     the whole message (the baseline, §6.1).
//   - SimRep: simple replication — one full copy of the message over
//     each of k disjoint paths (§4.7).
//   - SimEra: the paper's contribution — erasure-coded message segments
//     divided evenly among k disjoint paths, tolerating up to k(1-1/r)
//     path failures (§1.2, §4.7).
//
// in the simulated world: protocol parameters, world wiring,
// establishment attempts, responses, the rendezvous service of mutual
// anonymity, liveness prediction (§4.5) and cover agents (§4.6). The
// session itself — segment allocation (even and the §7 "weighted"
// extension), the ack ledger, end-to-end failure detection, probing and
// path reconstruction (§4.5) — is internal/session's state machine,
// shared with the live TCP node; Session and Receiver here are its
// simulator driver: engine timers, engine RNG (message IDs, then
// biased/random mix choice over the membership view), onion sends,
// trace events. The package builds on internal/onion for individual
// path mechanics.
package core

import (
	"fmt"

	"resilientmix/internal/erasure"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/sim"
)

// Protocol selects one of the paper's three protocols.
type Protocol int

// The three protocols of the evaluation.
const (
	CurMix Protocol = iota
	SimRep
	SimEra
)

// String names the protocol as in the paper's tables.
func (p Protocol) String() string {
	switch p {
	case CurMix:
		return "CurMix"
	case SimRep:
		return "SimRep"
	case SimEra:
		return "SimEra"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// DefaultAckTimeout is how long the initiator waits for a segment
// acknowledgment before declaring the carrying path failed (§4.5).
const DefaultAckTimeout = 5 * sim.Second

// DefaultL is the paper's default path length (§6.1).
const DefaultL = 3

// Params configures a protocol instance.
type Params struct {
	// Protocol selects CurMix, SimRep or SimEra.
	Protocol Protocol
	// K is the number of disjoint paths. CurMix requires K = 1; SimRep
	// sends one full copy per path so its replication factor equals K.
	K int
	// R is the replication factor r = n/m (SimEra only; SimRep's factor
	// is K and CurMix has none). K must be a multiple of R.
	R int
	// SegmentsPerPath is SimEra's s: each path carries s coded segments
	// (n = K*s, m = n/R). Zero means 1, the paper's configuration.
	SegmentsPerPath int
	// L is the number of relay nodes per path; zero means DefaultL.
	L int
	// Strategy is the mix choice: random or biased (§4.9).
	Strategy mixchoice.Strategy
	// AckTimeout overrides DefaultAckTimeout when positive.
	AckTimeout sim.Time
	// MaxEstablishAttempts bounds construction retries; zero means a
	// single attempt (the Table 1 setting — one try per event).
	MaxEstablishAttempts int
	// Weighted enables the §7 weighted-allocation extension: stable
	// paths receive more coded segments.
	Weighted bool
}

// withDefaults fills zero values.
func (p Params) withDefaults() Params {
	if p.L == 0 {
		p.L = DefaultL
	}
	if p.SegmentsPerPath == 0 {
		p.SegmentsPerPath = 1
	}
	if p.AckTimeout <= 0 {
		p.AckTimeout = DefaultAckTimeout
	}
	if p.MaxEstablishAttempts <= 0 {
		p.MaxEstablishAttempts = 1
	}
	switch p.Protocol {
	case CurMix:
		p.K, p.R = 1, 1
	case SimRep:
		if p.K == 0 {
			p.K = p.R // SimRep(r) means k = r copies
		}
		p.R = p.K
		p.SegmentsPerPath = 1
	}
	return p
}

// Validate checks the parameter combination. Call on the raw Params; it
// applies defaults internally the same way NewSession does.
func (p Params) Validate() error {
	p = p.withDefaults()
	if p.L < 1 {
		return fmt.Errorf("core: path length L=%d < 1", p.L)
	}
	if p.K < 1 {
		return fmt.Errorf("core: K=%d < 1", p.K)
	}
	switch p.Protocol {
	case CurMix:
		// forced to K=1, R=1 by withDefaults
	case SimRep:
		if p.K < 1 {
			return fmt.Errorf("core: SimRep needs K >= 1")
		}
	case SimEra:
		if p.R < 1 {
			return fmt.Errorf("core: SimEra needs R >= 1, got %d", p.R)
		}
		if p.K%p.R != 0 {
			return fmt.Errorf("core: SimEra needs K (%d) to be a multiple of R (%d)", p.K, p.R)
		}
		n := p.K * p.SegmentsPerPath
		if n%p.R != 0 {
			return fmt.Errorf("core: SimEra needs K*s (%d) divisible by R (%d)", n, p.R)
		}
		if n > erasure.MaxSegments {
			return fmt.Errorf("core: K*s = %d exceeds %d segments", n, erasure.MaxSegments)
		}
	default:
		return fmt.Errorf("core: unknown protocol %d", p.Protocol)
	}
	return nil
}

// codeShape returns the erasure code dimensions (m, n) for the params.
func (p Params) codeShape() (m, n int) {
	switch p.Protocol {
	case CurMix:
		return 1, 1
	case SimRep:
		return 1, p.K
	default: // SimEra
		n = p.K * p.SegmentsPerPath
		return n / p.R, n
	}
}

// Code builds the protocol's erasure code (replication codes for CurMix
// and SimRep are the m=1 special case).
func (p Params) Code() (*erasure.Code, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, n := p.codeShape()
	return erasure.New(m, n)
}

// MinPaths returns the number of live paths required for the protocol to
// deliver a message: ceil(m/s). This is both the establishment success
// criterion and the path-set death threshold of §6.1's evaluation
// framework (a SimEra set is dead once more than k(1-1/r) paths failed).
func (p Params) MinPaths() int {
	p = p.withDefaults()
	m, _ := p.codeShape()
	s := p.SegmentsPerPath
	return (m + s - 1) / s
}
