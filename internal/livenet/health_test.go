package livenet

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// disableReadyCache turns off readiness caching for the test so every
// probe reflects the cluster's instantaneous state.
func disableReadyCache(t *testing.T) {
	t.Helper()
	old := readyCacheTTL
	readyCacheTTL = 0
	t.Cleanup(func() { readyCacheTTL = old })
}

func TestReadyzProbe(t *testing.T) {
	disableReadyCache(t)
	c := startCluster(t, 3, nil)
	n := c.nodes[0]

	rec := httptest.NewRecorder()
	n.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("readyz with peers up = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}

	// Kill every other peer: the node can no longer reach the roster, so
	// it must flip to not-ready.
	for _, other := range c.nodes[1:] {
		other.Close()
	}
	rec = httptest.NewRecorder()
	n.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("readyz with all peers down = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "not ready") {
		t.Fatalf("readyz failure body carries no reason: %q", rec.Body.String())
	}

	// A shut-down node is never ready.
	n.Close()
	if err := n.Ready(); err == nil {
		t.Fatal("Ready() on a closed node returned nil")
	}
}

// TestReadyProbeIsSingleFlight: a readiness check that finds the cache
// cold or lapsed probes under the lock, so requests that arrive
// together cost the roster one dial between them, and requests inside
// the TTL cost it none.
func TestReadyProbeIsSingleFlight(t *testing.T) {
	c := startCluster(t, 2, nil)
	n := c.nodes[0]

	// The one peer is a bare listener that reports every connection it
	// accepts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan string, 128) // room for a dial per request, the failure this test exists for
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn.RemoteAddr().String()
			conn.Close()
		}
	}()
	peer, _ := c.roster.Peer(1)
	peer.Addr = ln.Addr().String()
	self, _ := c.roster.Peer(0)
	roster, err := NewRoster([]Peer{self, peer})
	if err != nil {
		t.Fatal(err)
	}
	n.SetRoster(roster)

	// probes counts the connections accepted so far: the accept queue is
	// first in, first out, so once the test's own connection has come
	// out, every earlier one has.
	probes := 0
	countProbes := func() int {
		t.Helper()
		marker, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer marker.Close()
		for addr := range accepted {
			if addr == marker.LocalAddr().String() {
				break
			}
			probes++
		}
		return probes
	}
	batch := func() {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := n.Ready(); err != nil {
					t.Errorf("Ready: %v", err)
				}
			}()
		}
		wg.Wait()
	}

	batch()
	if got := countProbes(); got != 1 {
		t.Fatalf("32 concurrent Ready() calls on a cold cache dialed the peer %d times, want 1", got)
	}
	batch()
	if got := countProbes(); got != 1 {
		t.Fatalf("a second batch inside the TTL raised the dial count to %d, want 1", got)
	}
}

// TestHealthReport: what a node reports about its own state reaches the
// registry the fleet pipeline scrapes — relay state-table sizes, paths
// built, inbound frames by kind — and the readiness verdict.
func TestHealthReport(t *testing.T) {
	c := startCluster(t, 4, map[int]DataFunc{3: func(h ReplyHandle, data []byte) {}})

	// Build a path so state tables and path counts are non-trivial.
	if _, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 3); err != nil {
		t.Fatal(err)
	}

	init := c.nodes[0].Metrics()
	if got := init.Counter("live.paths_built").Value(); got != 1 {
		t.Fatalf("initiator live.paths_built = %d, want 1", got)
	}
	if err := c.nodes[0].Ready(); err != nil {
		t.Fatalf("initiator not ready: %v", err)
	}
	relay := c.nodes[1].Metrics()
	if f, r := relay.Gauge("live.forward_states").Value(), relay.Gauge("live.reverse_states").Value(); f != 1 || r != 1 {
		t.Fatalf("relay state tables not reflected: live.forward_states = %v, live.reverse_states = %v, want 1, 1", f, r)
	}
	if got := relay.Counter("live.frames_in.construct").Value(); got != 1 {
		t.Fatalf("relay that handled a construction reports live.frames_in.construct = %d, want 1", got)
	}
}

func TestMetricsEndpointParses(t *testing.T) {
	c := startCluster(t, 4, map[int]DataFunc{3: func(h ReplyHandle, data []byte) {}})
	p, err := c.nodes[0].Construct([]netsim.NodeID{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("metrics probe")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	rec := httptest.NewRecorder()
	c.nodes[0].MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("live /metrics does not parse under the 0.0.4 grammar: %v", err)
	}
	fo, ok := fams["live_frames_out"]
	if !ok {
		t.Fatalf("live_frames_out missing from exposition; families: %d", len(fams))
	}
	if v, ok := fo.Value(); !ok || v <= 0 {
		t.Fatalf("live_frames_out = %v after sending traffic", v)
	}
	if _, ok := fams["live_paths_built"]; !ok {
		t.Fatal("live_paths_built missing from exposition")
	}
	// The per-peer egress family must be present for the first relay.
	if _, ok := fams["live_peer_out_1"]; !ok {
		t.Fatal("per-relay egress counter live_peer_out_1 missing")
	}
	// The scrape refreshes the runtime gauges the rules and the
	// dashboard read.
	for _, name := range []string{"runtime_goroutines", "runtime_heap_inuse_bytes", "runtime_last_gc_pause_seconds"} {
		if _, ok := fams[name]; !ok {
			t.Errorf("%s missing from exposition", name)
		}
	}
}

func TestTraceHandlerStreamsLiveEvents(t *testing.T) {
	c := startCluster(t, 4, map[int]DataFunc{3: func(h ReplyHandle, data []byte) {}})
	n := c.nodes[0]

	// Stream while a path construction and a send happen. httptest's
	// ResponseRecorder is synchronous, so run the handler in a goroutine
	// against a pipe and feed traffic concurrently.
	req := httptest.NewRequest("GET", "/debug/trace?dur=700ms", nil)
	pr, pw := io.Pipe()
	rec := &pipeRecorder{ResponseRecorder: httptest.NewRecorder(), w: pw}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer pw.Close()
		n.TraceHandler().ServeHTTP(rec, req)
	}()

	time.Sleep(50 * time.Millisecond)
	p, err := n.Construct([]netsim.NodeID{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("trace me")); err != nil {
		t.Fatal(err)
	}

	var events []obs.Event
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := obs.ParseEvent(line)
		if err != nil {
			t.Fatalf("stream line is not a trace event: %q: %v", line, err)
		}
		events = append(events, e)
	}
	<-done

	var sent, built int
	for _, e := range events {
		switch e.Type {
		case obs.MsgSent:
			sent++
		case obs.PathBuilt:
			built++
		}
	}
	if sent == 0 || built == 0 {
		t.Fatalf("stream missed live activity: %d msg_sent, %d path_built of %d events",
			sent, built, len(events))
	}
	// Reconciliation trailers: written + dropped == emitted, and this
	// short unloaded stream must not drop.
	emitted, _ := strconv.Atoi(rec.Header().Get("X-Trace-Emitted"))
	written, _ := strconv.Atoi(rec.Header().Get("X-Trace-Written"))
	dropped, _ := strconv.Atoi(rec.Header().Get("X-Trace-Dropped"))
	if written+dropped != emitted {
		t.Fatalf("trailers do not reconcile: %d written + %d dropped != %d emitted",
			written, dropped, emitted)
	}
	if written != len(events) {
		t.Fatalf("X-Trace-Written = %d but client parsed %d lines", written, len(events))
	}
	if dropped != 0 {
		t.Fatalf("unloaded stream dropped %d events", dropped)
	}
	// Detached after the stream: node activity no longer reaches the hub
	// subscriber count.
	if got := n.hub.Subscribers(); got != 0 {
		t.Fatalf("trace handler left %d subscribers attached", got)
	}
}

func TestTraceHandlerRejectsBadDur(t *testing.T) {
	c := startCluster(t, 2, nil)
	for _, q := range []string{"dur=bogus", "dur=-1s", "dur=0s"} {
		rec := httptest.NewRecorder()
		c.nodes[0].TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?"+q, nil))
		if rec.Code != 400 {
			t.Fatalf("?%s accepted with %d, want 400", q, rec.Code)
		}
	}
}

// pipeRecorder tees handler writes into a pipe so a concurrent reader
// can consume the NDJSON stream while the handler runs.
type pipeRecorder struct {
	*httptest.ResponseRecorder
	w io.Writer
}

func (p *pipeRecorder) Write(b []byte) (int, error) {
	if n, err := p.w.Write(b); err != nil {
		return n, err
	}
	return p.ResponseRecorder.Write(b)
}

func TestSessionCountersReconcile(t *testing.T) {
	// End-to-end: LiveSession counters on the initiator must reconcile
	// with the collector counters on the responder exactly as
	// analyze.Reconcile expects of simulated runs.
	delivered := make(chan []byte, 8)
	coll := NewLiveCollector(func(mid uint64, data []byte) { delivered <- bytes.Clone(data) })
	c := startCluster(t, 10, map[int]DataFunc{9: coll.Handle})
	init, resp := c.nodes[0], c.nodes[9]

	relayLists := [][]netsim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	s, err := init.NewLiveSessionOpts(relayLists, 9, SessionOptions{R: 2, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()

	const msgs = 3
	for i := 0; i < msgs; i++ {
		if _, err := s.Send([]byte("reconcile me")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	// Acks travel after delivery; give them a beat.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if init.Metrics().Counter("session.segments_acked").Value() >= uint64(msgs*len(relayLists)) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	im, rm := init.Metrics(), resp.Metrics()
	if got := im.Counter("session.messages_sent").Value(); got != msgs {
		t.Fatalf("messages_sent = %d, want %d", got, msgs)
	}
	wantSegs := uint64(msgs * len(relayLists))
	if got := im.Counter("session.segments_sent").Value(); got != wantSegs {
		t.Fatalf("segments_sent = %d, want %d", got, wantSegs)
	}
	if got := rm.Counter("recv.delivered").Value(); got != msgs {
		t.Fatalf("recv.delivered = %d, want %d", got, msgs)
	}
	recvSegs := rm.Counter("recv.segments").Value() + rm.Counter("recv.dup_segments").Value()
	if recvSegs != wantSegs {
		t.Fatalf("responder saw %d segments, initiator sent %d", recvSegs, wantSegs)
	}
	if got := im.Counter("session.segments_acked").Value(); got != wantSegs {
		t.Fatalf("segments_acked = %d, want %d", got, wantSegs)
	}
	if got := im.Counter("session.paths_dead").Value(); got != 0 {
		t.Fatalf("healthy run marked %d paths dead", got)
	}
}
