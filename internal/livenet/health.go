package livenet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// This file is the node's live-observability surface: the readiness
// probe, the Prometheus /metrics handler and a bounded NDJSON
// trace-streaming handler — with fault.go's and pprof.go's handlers,
// everything cmd/anonnode mounts on its debug listener, and each read
// by something named in DESIGN.md §7's inventory.

// readyCacheTTL bounds how often a readiness check actually probes the
// roster; within the window the cached verdict is reused. A package
// variable so tests can disable the cache.
var readyCacheTTL = time.Second

// readyProbePeers is how many distinct roster peers a readiness check
// dials before concluding the roster is unreachable.
const readyProbePeers = 3

// readyProbeTimeout bounds each readiness dial.
const readyProbeTimeout = 750 * time.Millisecond

// closed reports whether Close has begun.
func (n *Node) closed() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// Ready reports whether the node is roster-connected and
// session-capable: the listener is live, the roster contains this
// node, and at least one other roster peer accepts a TCP connection
// (so onion construction has somewhere to go). A single-node roster is
// trivially ready. The verdict is cached for readyCacheTTL, and the
// lock is held across the probe, so requests that arrive together
// share one probe: probe storms do not turn into dial storms.
func (n *Node) Ready() error {
	n.readyMu.Lock()
	defer n.readyMu.Unlock()
	if readyCacheTTL <= 0 || n.readyAt.IsZero() || time.Since(n.readyAt) >= readyCacheTTL {
		n.readyErr = n.readyProbe()
		n.readyAt = time.Now()
	}
	return n.readyErr
}

// readyProbe computes the uncached readiness verdict.
func (n *Node) readyProbe() error {
	if n.closed() {
		return fmt.Errorf("node %d is shut down", n.cfg.ID)
	}
	roster := n.roster()
	if roster == nil {
		return fmt.Errorf("no roster installed")
	}
	if _, err := roster.Peer(n.cfg.ID); err != nil {
		return fmt.Errorf("roster does not contain this node: %w", err)
	}
	if roster.Size() == 1 {
		return nil
	}
	probed := 0
	var lastErr error
	for id := 0; id < roster.Size() && probed < readyProbePeers; id++ {
		if id == int(n.cfg.ID) {
			continue
		}
		probed++
		conn, err := roster.dial(context.Background(), netsim.NodeID(id), time.Now().Add(readyProbeTimeout))
		if err != nil {
			lastErr = err
			continue
		}
		conn.Close()
		return nil
	}
	return fmt.Errorf("no roster peer reachable (probed %d): %v", probed, lastErr)
}

// ReadyzHandler is the readiness probe: 200 when Ready() passes, 503
// with the reason otherwise. `?verbose=1` (or any query) also works —
// the body always carries the verdict. A node with degraded sessions
// (running below full path width while repair works) stays ready —
// graceful degradation, not an outage — but the body says so, so
// probes and operators can see it.
func (n *Node) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := n.Ready(); err != nil {
			http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if d := n.degraded.Load(); d > 0 {
			fmt.Fprintf(w, "ready (degraded: %d sessions below full path width)\n", d)
			return
		}
		fmt.Fprintln(w, "ready")
	})
}

// MetricsHandler serves the node's registry in the Prometheus text
// exposition format (0.0.4). Each scrape refreshes the runtime
// telemetry gauges first (throttled), so the cluster recorder, the
// rule engine and the watch dashboard see process-resource series with
// no extra plumbing.
func (n *Node) MetricsHandler() http.Handler {
	prom := n.reg.PrometheusHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.rt.Collect()
		prom.ServeHTTP(w, r)
	})
}

// Trace streaming bounds: buffer size of the per-request sink, the
// default and maximum stream durations.
const (
	traceStreamBuffer = 1 << 16
	traceDefaultDur   = 5 * time.Second
	traceMaxDur       = 10 * time.Minute
)

// TraceHandler streams the node's live trace as NDJSON for the
// duration given by ?dur= (default 5s, capped at 10m): each line is
// one obs event in exactly the JSONL trace encoding, so the stream
// feeds cmd/anontrace unchanged. The per-request sink is bounded; when
// the client cannot keep up, events are dropped and counted — the
// totals are reported in the X-Trace-Emitted / X-Trace-Written /
// X-Trace-Dropped trailers and in the node's live.trace_dropped
// counter, so written + dropped always reconciles with emitted.
func (n *Node) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dur := traceDefaultDur
		if raw := r.URL.Query().Get("dur"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d <= 0 {
				http.Error(w, "bad dur: want a positive Go duration like 5s", http.StatusBadRequest)
				return
			}
			dur = d
		}
		if dur > traceMaxDur {
			dur = traceMaxDur
		}

		sink := obs.NewStreamSink(traceStreamBuffer)
		detach := n.AttachTracer(sink)
		defer detach()

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Trailer", "X-Trace-Emitted, X-Trace-Written, X-Trace-Dropped")
		flusher, _ := w.(http.Flusher)

		timer := time.NewTimer(dur)
		defer timer.Stop()
		flush := time.NewTicker(250 * time.Millisecond)
		defer flush.Stop()

		var written uint64
		buf := make([]byte, 0, 256)
		writeEvent := func(e obs.Event) bool {
			buf = obs.AppendJSON(buf[:0], e)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return false
			}
			written++
			return true
		}
	stream:
		for {
			select {
			case e := <-sink.C():
				if !writeEvent(e) {
					break stream
				}
			case <-timer.C:
				break stream
			case <-r.Context().Done():
				break stream
			case <-n.quit:
				break stream
			case <-flush.C:
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
		// Stop accepting new events, then drain what is already queued.
		detach()
	drain:
		for {
			select {
			case e := <-sink.C():
				if !writeEvent(e) {
					break drain
				}
			default:
				break drain
			}
		}
		n.reg.Counter("live.trace_streams").Inc()
		n.reg.Counter("live.trace_written").Add(written)
		n.reg.Counter("live.trace_dropped").Add(sink.Dropped())
		w.Header().Set("X-Trace-Emitted", fmt.Sprint(sink.Emitted()))
		w.Header().Set("X-Trace-Written", fmt.Sprint(written))
		w.Header().Set("X-Trace-Dropped", fmt.Sprint(sink.Dropped()))
		if flusher != nil {
			flusher.Flush()
		}
	})
}
