package core

import (
	"fmt"
	"math/rand"

	"resilientmix/internal/erasure"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/session"
)

// StaticResult summarizes a static-availability Monte Carlo run
// (Figures 2-4): the fraction of trials in which the responder could
// reconstruct the message, and the mean bandwidth in KB over successful
// trials (the §6.1 bandwidth metric counts bytes over every link a
// message traverses, including links leading into a dead relay).
type StaticResult struct {
	SuccessRate float64
	BandwidthKB float64
	Trials      int
}

// StaticConfig parameterizes SimulateStatic.
type StaticConfig struct {
	// Availability is pa: each relay is independently up with this
	// probability at send time.
	Availability float64
	// K paths, replication factor R, path length L (0 = DefaultL). Each
	// path carries one coded segment.
	K, R, L int
	// Trials is the Monte Carlo sample count (0 = 20000).
	Trials int
}

// staticMessageSize is the paper's default message size in bytes.
const staticMessageSize = 1024

// SimulateStatic runs the Figures 2-4 experiment: k freshly built paths
// of L relays, each relay independently available with probability pa;
// path failures follow the Bernoulli model of §4.7 (a path delivers all
// its segments or none). Returns the empirical P(k) and the bandwidth
// cost of successful routing.
//
// Bandwidth model: a message on a path traverses links until it hits the
// first down relay; each traversed link carries the onion at its current
// size (one symmetric layer is stripped per hop). Successful paths
// traverse all L+1 links. Link sizes are onioncrypt.Null's: byte-exact
// onion overheads, no arithmetic.
func SimulateStatic(rng *rand.Rand, cfg StaticConfig) (StaticResult, error) {
	if cfg.Availability < 0 || cfg.Availability > 1 {
		return StaticResult{}, fmt.Errorf("core: availability %g outside [0,1]", cfg.Availability)
	}
	if cfg.L == 0 {
		cfg.L = DefaultL
	}
	if cfg.Trials == 0 {
		cfg.Trials = 20000
	}
	if cfg.K < 1 || cfg.R < 1 || cfg.K%cfg.R != 0 {
		return StaticResult{}, fmt.Errorf("core: K=%d must be a positive multiple of R=%d", cfg.K, cfg.R)
	}

	m := cfg.K / cfg.R
	code, err := erasure.New(m, cfg.K)
	if err != nil {
		return StaticResult{}, err
	}

	// Per-link sizes of one path's traffic: the outer onion shrinks by
	// SymOverhead per hop; the final link carries the responder blob.
	segPlain := session.SegmentOverhead + code.SegmentSize(staticMessageSize)
	linkSizes := staticLinkSizes(cfg.L, segPlain)

	var successes int
	var successBytes float64
	for t := 0; t < cfg.Trials; t++ {
		var upPaths, bytes int
		for p := 0; p < cfg.K; p++ {
			// Find the first down relay, if any.
			firstDown := -1
			for h := 0; h < cfg.L; h++ {
				if rng.Float64() >= cfg.Availability {
					firstDown = h
					break
				}
			}
			links := cfg.L + 1
			if firstDown >= 0 {
				// The message traverses links 0..firstDown (the link
				// into the dead relay is still paid for).
				links = firstDown + 1
			} else {
				upPaths++
			}
			for l := 0; l < links; l++ {
				bytes += linkSizes[l]
			}
		}
		if upPaths >= m {
			successes++
			successBytes += float64(bytes)
		}
	}
	res := StaticResult{
		SuccessRate: float64(successes) / float64(cfg.Trials),
		Trials:      cfg.Trials,
	}
	if successes > 0 {
		res.BandwidthKB = successBytes / float64(successes) / 1024
	}
	return res, nil
}

// staticLinkSizes returns the on-the-wire message size on each of the
// L+1 links of a path carrying segPlain application bytes, matching the
// real onion encoding byte for byte.
func staticLinkSizes(l, segPlain int) []int {
	const msgHdr = 1 + 8 + 4 // kind + sid + length prefix
	suite := onioncrypt.Null{}
	sizes := make([]int, l+1)
	outer := onion.PayloadOnionSize(suite, l, segPlain)
	size := outer
	for i := 0; i < l; i++ {
		sizes[i] = msgHdr + size
		size -= suite.SymOverhead()
	}
	// Terminal relay strips its layer and the destination field before
	// delivering the responder blob.
	blob := 4 + 32 + suite.SealOverhead() + 4 + segPlain + suite.SymOverhead()
	sizes[l] = msgHdr + blob
	return sizes
}
