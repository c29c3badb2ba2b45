package analyze

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file computes what a passive global observer — one who sees
// every wire event (send times, link endpoints, sizes) but no message
// contents and no onion keys — learns about who initiated each
// delivered message. The observable is the set of first-hop sends: the
// observer knows when the message was reconstructed and how long paths
// take, so every node that launched a first-hop send inside the
// message's delivery window is a plausible initiator. The smaller and
// more skewed that set, the weaker the anonymity (ZhuH07 §2's passive
// adversary). Correlate is §4.6's attack by an observer who taps only
// some nodes; both read one index of every msg_sent, in time order.

// AnonymityMetrics are observables available to a passive global
// observer who sees every wire event but no message contents: how well
// initiator identity is hidden per delivered message.
type AnonymityMetrics struct {
	// Messages is the number of delivered messages measured.
	Messages int `json:"messages"`
	// MeanSetSize is the mean anonymity-set size: nodes that initiated
	// first-hop sends inside the message's delivery window and are thus
	// plausible initiators.
	MeanSetSize float64 `json:"mean_set_size"`
	// MinSetSize is the smallest anonymity set observed.
	MinSetSize int `json:"min_set_size"`
	// MeanEntropyBits is the mean Shannon entropy (bits) of the
	// send-count-weighted initiator distribution.
	MeanEntropyBits float64 `json:"mean_entropy_bits"`
	// LinkageRate is the fraction of messages whose anonymity set
	// collapsed to exactly the true initiator.
	LinkageRate float64 `json:"linkage_rate"`
}

// anonymityMetrics computes per-message anonymity observables over
// delivered streams, from the time-ordered send index's tagged
// first-hop sends.
func anonymityMetrics(streams []*Stream, sends []send) *AnonymityMetrics {
	m := &AnonymityMetrics{MinSetSize: math.MaxInt}
	var sumSet, sumEntropy float64
	linked := 0
	counts := make(map[int]int)
	for _, st := range streams {
		// A capture merged from several hosts' clocks can stamp a
		// reconstruction before its send: no window, not measurable.
		if !st.Reconstructed || st.FirstSentAt < 0 || st.ReconstructedAt < st.FirstSentAt {
			continue
		}
		// The delivery window: any first-hop send in
		// [FirstSentAt, ReconstructedAt] could have been this message's
		// launch. The index is in time order, so the window is a
		// contiguous run found by binary search.
		lo := sort.Search(len(sends), func(i int) bool { return sends[i].at >= st.FirstSentAt })
		hi := sort.Search(len(sends), func(i int) bool { return sends[i].at > st.ReconstructedAt })
		clear(counts)
		total := 0
		for _, s := range sends[lo:hi] {
			if s.hop0 {
				counts[s.node]++
				total++
			}
		}
		if total == 0 {
			// Delivered without any observed first-hop send (endpoint
			// events only); not measurable.
			continue
		}
		m.Messages++
		setSize := len(counts)
		sumSet += float64(setSize)
		if setSize < m.MinSetSize {
			m.MinSetSize = setSize
		}
		// Shannon entropy of the send-count-weighted initiator
		// distribution: an observer weighting candidates by activity.
		var entropy float64
		for _, c := range counts {
			p := float64(c) / float64(total)
			entropy -= p * math.Log2(p)
		}
		sumEntropy += entropy
		// Linkage: the set collapsed to exactly the true initiator.
		if setSize == 1 && st.Initiator >= 0 {
			if _, only := counts[st.Initiator]; only {
				linked++
			}
		}
	}
	if m.Messages == 0 {
		return nil
	}
	n := float64(m.Messages)
	m.MeanSetSize = sumSet / n
	m.MeanEntropyBits = sumEntropy / n
	m.LinkageRate = float64(linked) / n
	return m
}

// Coverage draws the nodes whose outgoing links a partial observer taps
// (§3: "the attacker can observe some fraction of network traffics"):
// node x independently with probability p, one rng.Float64 per node id
// in ascending order.
func Coverage(rng *rand.Rand, n int, p float64) ([]bool, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("analyze: coverage %g outside [0,1]", p)
	}
	covered := make([]bool, n)
	for x := range covered {
		covered[x] = rng.Float64() < p
	}
	return covered, nil
}

// Correlation is the outcome of §4.6's timing-correlation attack.
type Correlation struct {
	// Deliveries is the number of victim messages reconstructed.
	Deliveries int
	// Top is the best candidate's score: the fraction of deliveries
	// preceded, within the window, by a send from it.
	Top float64
	// Ambiguity is the number of candidates tied at Top — the
	// attacker's anonymity set.
	Ambiguity int
	// Success is the probability that the attacker, guessing uniformly
	// among the tied candidates, names an initiator of the victim
	// messages (per their segment_sent events); 0 when nothing
	// correlated (Top is 0). A deterministic tie-break would smuggle in
	// id bias.
	Success float64
}

// Correlate mounts §4.6's attack: the observer sees when the covered
// nodes send (covered[x], drawn by Coverage) and when the responder it
// controls reconstructs the victim messages — the responder tells its
// own conversation from cover dummies. A node that consistently sends
// within window before those reconstructions is probably the
// initiator; cover traffic washes that out. Every covered node not in
// exclude is a candidate; a node id outside covered (a trace is
// outside input) never is.
func (r *Result) Correlate(covered []bool, window int64, victim map[uint64]bool, exclude ...int) (Correlation, error) {
	if window <= 0 {
		return Correlation{}, fmt.Errorf("analyze: correlation window must be positive")
	}
	var c Correlation
	initiator := make(map[int]bool)
	hits := make([]int, len(covered))
	// last[x] is 1 + the delivery x was last counted for.
	last := make([]int, len(covered))
	for _, st := range r.Streams {
		if !victim[st.MID] {
			continue
		}
		initiator[st.Initiator] = true
		if !st.Reconstructed {
			continue
		}
		c.Deliveries++
		t := st.ReconstructedAt
		lo := sort.Search(len(r.sends), func(i int) bool { return r.sends[i].at >= t-window })
		for _, s := range r.sends[lo:] {
			if s.at > t {
				break
			}
			if x := s.node; x >= 0 && x < len(covered) && covered[x] && last[x] != c.Deliveries {
				last[x] = c.Deliveries
				hits[x]++
			}
		}
	}
	skip := make(map[int]bool, len(exclude))
	for _, x := range exclude {
		skip[x] = true
	}
	score := func(x int) float64 { return float64(hits[x]) / float64(max(c.Deliveries, 1)) }
	for x, ok := range covered {
		if ok && !skip[x] {
			c.Top = max(c.Top, score(x))
		}
	}
	named := 0
	for x, ok := range covered {
		if ok && !skip[x] && score(x) >= c.Top-1e-12 {
			c.Ambiguity++
			if initiator[x] {
				named++
			}
		}
	}
	if c.Top > 0 {
		c.Success = float64(named) / float64(c.Ambiguity)
	}
	return c, nil
}
