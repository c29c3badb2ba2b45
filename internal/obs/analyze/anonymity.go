package analyze

import (
	"math"
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
// adversary).

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
// delivered streams, from the trace-ordered index of tagged first-hop
// sends.
func anonymityMetrics(streams []*Stream, hop0 []hopSend) *AnonymityMetrics {
	if len(hop0) == 0 {
		return nil
	}
	m := &AnonymityMetrics{MinSetSize: math.MaxInt}
	var sumSet, sumEntropy float64
	linked := 0
	counts := make(map[int]int)
	for _, st := range streams {
		if !st.Reconstructed || st.FirstSentAt < 0 {
			continue
		}
		// The delivery window: any first-hop send in
		// [FirstSentAt, ReconstructedAt] could have been this message's
		// launch. hop0 is in trace order, so the window is a contiguous
		// run found by binary search.
		lo := sort.Search(len(hop0), func(i int) bool { return hop0[i].at >= st.FirstSentAt })
		hi := sort.Search(len(hop0), func(i int) bool { return hop0[i].at > st.ReconstructedAt })
		clear(counts)
		total := 0
		for _, s := range hop0[lo:hi] {
			counts[s.node]++
			total++
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
