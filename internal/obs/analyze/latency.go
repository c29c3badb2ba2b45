package analyze

import (
	"math"
	"sort"
)

// StreamLatency is the end-to-end latency attribution of one delivered
// message, decomposed along its critical chain — the segment journey
// whose arrival completed reconstruction. The components are additive:
// RetryMs + PropagationMs + QueueingMs == E2EMs exactly, because every
// microsecond between first send and reconstruction is either before
// the critical chain launched (retry/scheduling), on a link
// (propagation), or inside a relay (queueing).
type StreamLatency struct {
	MID uint64
	// Seg/Slot identify the critical journey.
	Seg, Slot int
	// Hops is the critical chain's wire-hop count.
	Hops int
	// E2EMs is first segment send to reconstruction, in milliseconds of
	// virtual time.
	E2EMs float64
	// RetryMs is the launch delay: first segment send until the
	// critical chain's own first send.
	RetryMs float64
	// PropagationMs is time in flight on links along the critical
	// chain.
	PropagationMs float64
	// QueueingMs is time inside relays (delivery to next-hop send)
	// along the critical chain.
	QueueingMs float64
}

// LatencySummary attributes end-to-end message latency (first segment
// send to reconstruction) into additive components measured along the
// critical chain — the segment journey whose arrival completed
// reconstruction. All times are milliseconds of virtual time.
type LatencySummary struct {
	// Count is the number of delivered messages measured.
	Count int `json:"count"`
	// MeanMs is the mean end-to-end latency.
	MeanMs float64 `json:"mean_ms"`
	// P50Ms/P90Ms/P99Ms are exact sample quantiles of end-to-end
	// latency.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MeanPropagationMs is the mean time spent in flight on links along
	// the critical chain.
	MeanPropagationMs float64 `json:"mean_propagation_ms"`
	// MeanQueueingMs is the mean time spent inside relays (delivery to
	// next-hop send) along the critical chain.
	MeanQueueingMs float64 `json:"mean_queueing_ms"`
	// MeanRetryMs is the mean launch delay: time from the message's
	// first segment send until the critical chain's own first send —
	// retries, redundant-path scheduling, and repair waits.
	MeanRetryMs float64 `json:"mean_retry_ms"`
}

// usToMs converts virtual-time microseconds to milliseconds.
func usToMs(us int64) float64 { return float64(us) / 1000 }

// criticalAttempt finds the attempt whose final delivery coincides with
// the stream's reconstruction instant: reconstruction happens
// synchronously when the m-th segment is delivered, so exactly the
// completing journeys end at ReconstructedAt. Returns the attempt and
// the journey, or nils when the trace does not contain one (endpoint
// events without wire events, e.g. a livenet trace).
func criticalAttempt(st *Stream) (*Attempt, *Journey) {
	for _, j := range st.Journeys {
		if j.Outcome != OutcomeArrived {
			continue
		}
		att := j.final()
		h := att.last()
		if h != nil && h.Delivered && h.DeliveredAt == st.ReconstructedAt {
			return att, j
		}
	}
	return nil, nil
}

// attributeLatency computes per-stream attributions and their summary
// over delivered streams that have a reconstructable critical chain.
func attributeLatency(streams []*Stream) (*LatencySummary, []StreamLatency) {
	var rows []StreamLatency
	for _, st := range streams {
		if !st.Reconstructed || st.FirstSentAt < 0 {
			continue
		}
		att, j := criticalAttempt(st)
		if att == nil {
			continue
		}
		row := StreamLatency{
			MID:     st.MID,
			Seg:     j.Seg,
			Slot:    j.Slot,
			Hops:    len(att.Hops),
			E2EMs:   usToMs(st.ReconstructedAt - st.FirstSentAt),
			RetryMs: usToMs(att.Hops[0].SentAt - st.FirstSentAt),
		}
		var prop, queue int64
		for i := range att.Hops {
			h := &att.Hops[i]
			prop += h.DeliveredAt - h.SentAt
			if i > 0 {
				queue += h.SentAt - att.Hops[i-1].DeliveredAt
			}
		}
		row.PropagationMs = usToMs(prop)
		row.QueueingMs = usToMs(queue)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, nil
	}

	e2e := make([]float64, len(rows))
	var sumE2E, sumProp, sumQueue, sumRetry float64
	for i, r := range rows {
		e2e[i] = r.E2EMs
		sumE2E += r.E2EMs
		sumProp += r.PropagationMs
		sumQueue += r.QueueingMs
		sumRetry += r.RetryMs
	}
	sort.Float64s(e2e)
	n := float64(len(rows))
	return &LatencySummary{
		Count:             len(rows),
		MeanMs:            sumE2E / n,
		P50Ms:             sampleQuantile(e2e, 0.50),
		P90Ms:             sampleQuantile(e2e, 0.90),
		P99Ms:             sampleQuantile(e2e, 0.99),
		MeanPropagationMs: sumProp / n,
		MeanQueueingMs:    sumQueue / n,
		MeanRetryMs:       sumRetry / n,
	}, rows
}

// sampleQuantile returns the exact q-quantile of a sorted sample using
// the ceil(q*n) order statistic.
func sampleQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
