package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"resilientmix/internal/obs"
)

// scrapeClient bounds every poll and probe request; a trace capture
// builds its own client because it intentionally runs for longer.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrapePolicy retries every fetch: a single attempt marks a node failed
// whenever one request lands inside a GC pause or a TCP accept-queue
// hiccup. Transport errors retry with capped, jittered exponential
// backoff (the jitter keeps scrapers that failed on the same outage
// from retrying in lockstep). Status-code answers are authoritative
// and are only retried where noted (5xx on metric fetches, never on
// probes: a 503 from /readyz is a definitive "not ready", not an
// outage).
var scrapePolicy = struct {
	// Attempts counts the first try; Backoff is the wait before the
	// second, doubling per retry up to BackoffCap; Jitter spreads each
	// wait uniformly over [d·(1−j), d·(1+j)].
	Attempts            int
	Backoff, BackoffCap time.Duration
	Jitter              float64
}{Attempts: 3, Backoff: 100 * time.Millisecond, BackoffCap: time.Second, Jitter: 0.5}

// getRetry fetches url, retrying transport errors (and, when retry5xx
// is set, 5xx statuses) per scrapePolicy. On success the caller owns
// the response body.
func getRetry(url string, retry5xx bool) (*http.Response, error) {
	p, wait := scrapePolicy, scrapePolicy.Backoff
	var err error
	for i := 0; i < p.Attempts; i++ {
		if i > 0 {
			time.Sleep(time.Duration(float64(wait) * (1 - p.Jitter + 2*p.Jitter*rand.Float64())))
			wait = min(2*wait, p.BackoffCap)
		}
		var r *http.Response
		if r, err = scrapeClient.Get(url); err != nil {
			continue
		}
		if retry5xx && r.StatusCode >= 500 {
			io.Copy(io.Discard, io.LimitReader(r.Body, 4096))
			r.Body.Close()
			err = fmt.Errorf("status %d from %s", r.StatusCode, url)
			continue
		}
		return r, nil
	}
	return nil, err
}

// probeReady asks one node's /readyz and returns its failure, if any.
func probeReady(debugAddr string) error {
	resp, err := getRetry("http://"+debugAddr+"/readyz", false)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz %d: %s", resp.StatusCode, body)
	}
	return nil
}

// CaptureTrace streams one node's /debug/trace for dur and returns the
// parsed events.
func CaptureTrace(debugAddr string, dur time.Duration) ([]obs.Event, error) {
	client := &http.Client{Timeout: dur + 30*time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/debug/trace?dur=%s", debugAddr, dur))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("trace %d: %s", resp.StatusCode, body)
	}
	var events []obs.Event
	err = obs.ForEachEvent(resp.Body, func(e obs.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// MergeTraces merges per-node trace captures into one cluster trace
// ordered by timestamp (stable, so same-instant events keep their
// per-node order).
func MergeTraces(traces ...[]obs.Event) []obs.Event {
	var out []obs.Event
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// WriteTrace writes events as a JSONL trace file (gzip when the path
// ends in .gz) consumable by cmd/anontrace.
func WriteTrace(path string, events []obs.Event) error {
	tf, err := obs.CreateTraceFile(path)
	if err != nil {
		return err
	}
	for _, e := range events {
		tf.Emit(e)
	}
	return tf.Close()
}
