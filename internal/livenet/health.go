package livenet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// This file is the node's live-observability surface: an instantaneous
// health report, liveness and readiness probes, the Prometheus
// /metrics handler, and a bounded NDJSON trace-streaming handler —
// everything cmd/anonnode mounts on its debug listener and everything
// cmd/anonctl scrapes to observe a cluster as a whole.

// readyCacheTTL bounds how often a readiness check actually probes the
// roster; within the window the cached verdict is reused. A package
// variable so tests can disable the cache.
var readyCacheTTL = time.Second

// readyProbePeers is how many distinct roster peers a readiness check
// dials before concluding the roster is unreachable.
const readyProbePeers = 3

// readyProbeTimeout bounds each readiness dial.
const readyProbeTimeout = 750 * time.Millisecond

// Health is a point-in-time health report of a live node.
type Health struct {
	// ID is the node's roster identity.
	ID int `json:"id"`
	// Addr is the bound listen address.
	Addr string `json:"addr"`
	// UptimeSeconds is the time since Start.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RosterSize is the current roster size.
	RosterSize int `json:"roster_size"`
	// ForwardStates / ReverseStates are the relay state-table sizes —
	// the node's queue-depth analogue (livenet holds per-stream state,
	// not per-relay queues).
	ForwardStates int `json:"forward_states"`
	ReverseStates int `json:"reverse_states"`
	// ActivePaths is the number of initiator paths currently
	// established from this node.
	ActivePaths int `json:"active_paths"`
	// LastFrameAgoSeconds is the age of the most recent inbound frame,
	// -1 when no frame has ever arrived.
	LastFrameAgoSeconds float64 `json:"last_frame_ago_seconds"`
	// Responder reports whether the node has a data handler installed.
	Responder bool `json:"responder"`
	// Process-resource telemetry (from the runtime collector):
	// goroutine count, heap occupancy, GC cycle count and the most
	// recent GC pause. LastGCPauseSeconds is 0 before the first GC.
	Goroutines         int     `json:"goroutines"`
	HeapInuseBytes     uint64  `json:"heap_inuse_bytes"`
	HeapObjects        uint64  `json:"heap_objects"`
	NumGC              uint32  `json:"num_gc"`
	LastGCPauseSeconds float64 `json:"last_gc_pause_seconds"`
	// DegradedSessions counts live sessions currently running below
	// their full path width (repair in progress — the node sheds cover
	// traffic first and keeps real traffic flowing).
	DegradedSessions int `json:"degraded_sessions"`
	// Ready mirrors the readiness verdict; ReadyReason carries the
	// failure description when not ready.
	Ready       bool   `json:"ready"`
	ReadyReason string `json:"ready_reason,omitempty"`
}

// Health reports the node's current state.
func (n *Node) Health() Health {
	roster := n.roster()
	n.mu.Lock()
	paths := len(n.paths)
	responder := n.cfg.OnData != nil
	n.mu.Unlock()
	fwd, rev := n.tab.States()
	h := Health{
		ID:                  int(n.cfg.ID),
		Addr:                n.Addr(),
		UptimeSeconds:       time.Since(n.started).Seconds(),
		RosterSize:          roster.Size(),
		ForwardStates:       fwd,
		ReverseStates:       rev,
		ActivePaths:         paths,
		LastFrameAgoSeconds: -1,
		Responder:           responder,
	}
	if at := n.lastFrameAt.Load(); at != 0 {
		h.LastFrameAgoSeconds = time.Since(time.UnixMicro(at)).Seconds()
	}
	n.rt.Collect()
	rs := n.rt.Stats()
	h.Goroutines = rs.Goroutines
	h.HeapInuseBytes = rs.HeapInuseBytes
	h.HeapObjects = rs.HeapObjects
	h.NumGC = rs.NumGC
	h.LastGCPauseSeconds = rs.LastGCPauseSeconds
	h.DegradedSessions = int(n.degraded.Load())
	if err := n.Ready(); err != nil {
		h.ReadyReason = err.Error()
	} else {
		h.Ready = true
	}
	return h
}

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
// trivially ready. The verdict is cached for readyCacheTTL to keep
// probe storms from turning into dial storms.
func (n *Node) Ready() error {
	n.readyMu.Lock()
	if readyCacheTTL > 0 && !n.readyAt.IsZero() && time.Since(n.readyAt) < readyCacheTTL {
		err := n.readyErr
		n.readyMu.Unlock()
		return err
	}
	n.readyMu.Unlock()

	err := n.readyProbe()

	n.readyMu.Lock()
	n.readyAt = time.Now()
	n.readyErr = err
	n.readyMu.Unlock()
	return err
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
		conn, err := roster.dial(netsim.NodeID(id), readyProbeTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		conn.Close()
		return nil
	}
	return fmt.Errorf("no roster peer reachable (probed %d): %v", probed, lastErr)
}

// HealthzHandler is the liveness probe: 200 while the node runs, 503
// once it is shut down.
func (n *Node) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.closed() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
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

// HealthHandler serves the full Health report as JSON.
func (n *Node) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.Health())
	})
}

// MetricsHandler serves the node's registry in the Prometheus text
// exposition format (0.0.4). Each scrape refreshes the runtime
// telemetry gauges first (throttled), so every downstream consumer —
// the cluster recorder, the tsdb, the rule engine, the watch
// dashboard — sees process-resource series with no extra plumbing.
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
