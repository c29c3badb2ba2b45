package analyze

import (
	"fmt"
	"sort"
)

// This file reads a sample of constructed paths the way the relays on
// them do. §5's predecessor attack: a compromised relay records who
// handed it the construction onion, and when it sits first that
// predecessor is the initiator (Case 1 of Eq. 4). §7's long-lived
// attacker: the share of relay slots the compromised nodes hold. And
// without an attacker, how relay duty spreads over the nodes. The
// sample is the caller's — however its world drew the paths.

// Path is one constructed path: its initiator and its relays, first
// relay first.
type Path[ID ~int] struct {
	Initiator ID
	Relays    []ID
}

// PathReadout is what a sample of paths shows an attacker holding the
// compromised set, and how relay duty spreads over the nodes.
type PathReadout struct {
	// Paths is the number of paths read: every path whose initiator is
	// honest (§5 analyzes paths initiated by honest nodes).
	Paths int
	// Touched is how many of them had a compromised relay.
	Touched int
	// FirstRelayHits is how many had a compromised first relay, whose
	// predecessor guess is certainly right (§5 Case 1).
	FirstRelayHits int
	// FirstRelayShare is FirstRelayHits over Paths: Eq. 4's P(Case 1)
	// as the sample has it.
	FirstRelayShare float64
	// GuessAccuracy is the fraction of predecessor guesses that named
	// the initiator: FirstRelayHits over Touched.
	GuessAccuracy float64
	// InitiatorExposure estimates §5's P(x = I): the chance that the
	// attacker's strategy — the predecessor guess on a touched path, a
	// uniform guess over the honest nodes otherwise — names the
	// initiator, over all paths read.
	InitiatorExposure float64
	// SlotShare is the share of the relay slots that compromised nodes
	// hold.
	SlotShare float64
	// BusiestShare is the share of the relay slots that the busiest 5 %
	// of the nodes hold (at least one node).
	BusiestShare float64
	// MaxMeanDuty is the busiest node's relay slots over the mean per
	// node.
	MaxMeanDuty float64
}

// ReadPaths reads paths over the nodes 0..n-1 against an attacker
// holding the compromised nodes (none: only the honest-initiator rule
// and the guessing baseline are left, and the duty figures are the
// point). Each path is observed once, at its first compromised relay:
// "the attacker has no reason to suspect any node other than the one
// immediately preceding it" (§5), so deeper colluders add nothing to
// the guess. A node id outside 0..n-1 is an error.
func ReadPaths[ID ~int](n int, paths []Path[ID], compromised []ID) (PathReadout, error) {
	bad := make([]bool, n)
	held := 0 // distinct compromised nodes
	for _, x := range compromised {
		if x < 0 || int(x) >= n {
			return PathReadout{}, fmt.Errorf("analyze: compromised node %d outside 0..%d", x, n-1)
		}
		if !bad[x] {
			bad[x] = true
			held++
		}
	}
	var r PathReadout
	duty := make([]float64, n)
	slots, badSlots := 0, 0
	for _, p := range paths {
		if p.Initiator < 0 || int(p.Initiator) >= n {
			return PathReadout{}, fmt.Errorf("analyze: initiator %d outside 0..%d", p.Initiator, n-1)
		}
		if bad[p.Initiator] {
			continue
		}
		r.Paths++
		observed := false
		for i, x := range p.Relays {
			if x < 0 || int(x) >= n {
				return PathReadout{}, fmt.Errorf("analyze: relay %d outside 0..%d", x, n-1)
			}
			duty[x]++
			slots++
			if !bad[x] {
				continue
			}
			badSlots++
			if !observed {
				observed = true
				r.Touched++
				if i == 0 {
					r.FirstRelayHits++
				}
			}
		}
	}
	if r.Paths > 0 {
		r.FirstRelayShare = float64(r.FirstRelayHits) / float64(r.Paths)
		if honest := n - held; honest > 0 {
			// The predecessor guess is right exactly when the compromised
			// relay sat first; a deeper one names a relay, which is
			// simply wrong. Untouched paths fall back to the uniform
			// guess over the honest nodes.
			correct := float64(r.FirstRelayHits)
			untouched := float64(r.Paths - r.Touched)
			r.InitiatorExposure = (correct + untouched/float64(honest)) / float64(r.Paths)
		}
	}
	if r.Touched > 0 {
		r.GuessAccuracy = float64(r.FirstRelayHits) / float64(r.Touched)
	}
	if slots > 0 {
		r.SlotShare = float64(badSlots) / float64(slots)
		r.BusiestShare, r.MaxMeanDuty = concentration(duty)
	}
	return r, nil
}

// concentration is the share of the total duty on the busiest 5 % of
// the nodes (at least one) and the busiest node's duty over the mean.
// It sorts duty.
func concentration(duty []float64) (busiest, maxMean float64) {
	sort.Sort(sort.Reverse(sort.Float64Slice(duty)))
	var total float64
	for _, v := range duty {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	n := len(duty)
	topN := n / 20
	if topN < 1 {
		topN = 1
	}
	var top float64
	for _, v := range duty[:topN] {
		top += v
	}
	mean := total / float64(n)
	return top / total, duty[0] / mean
}
