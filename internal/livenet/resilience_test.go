package livenet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientmix/internal/netsim"
)

// silentServer accepts TCP connections and never answers — the shape
// of a blackholed or wedged peer that the initiator's deadlines must
// defend against.
func silentServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn) // read forever, say nothing
				conn.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestBlackholedPeerCannotStallInitiator is the deadline regression
// test: a first relay that accepts connections but never acks must not
// stall ConstructCtx past its context deadline.
func TestBlackholedPeerCannotStallInitiator(t *testing.T) {
	c := startCluster(t, 5, nil)
	silent := silentServer(t)
	// Point node 0's view of relay 1 at the silent server.
	peers := make([]Peer, 5)
	for i := range peers {
		p, err := c.roster.Peer(netsim.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	peers[1].Addr = silent.Addr().String()
	hijacked, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[0].SetRoster(hijacked)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.nodes[0].ConstructCtx(ctx, []netsim.NodeID{1, 2}, 4)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("construction through a silent relay succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("initiator stalled %v past its 2s deadline", elapsed)
	}
}

// TestBlackholeRefusesOutbound checks the fault controller's local
// verdict: a blackholed peer is refused immediately, not after a dial
// timeout.
func TestBlackholeRefusesOutbound(t *testing.T) {
	c := startCluster(t, 4, nil)
	c.nodes[0].BlackholePeer(1, 0)
	start := time.Now()
	_, err := c.nodes[0].Construct([]netsim.NodeID{1}, 3)
	if err == nil {
		t.Fatal("construction through a blackholed peer succeeded")
	}
	if !strings.Contains(err.Error(), "blackholed") {
		t.Fatalf("want blackhole refusal, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("blackhole refusal took %v, want immediate", time.Since(start))
	}
	c.nodes[0].HealPeer(1)
	if _, err := c.nodes[0].Construct([]netsim.NodeID{1}, 3); err != nil {
		t.Fatalf("construction after heal failed: %v", err)
	}
}

// TestFaultHandlerHTTP drives the /debug/fault surface end to end.
func TestFaultHandlerHTTP(t *testing.T) {
	c := startCluster(t, 3, nil)
	srv := httptest.NewServer(c.nodes[0].FaultHandler())
	defer srv.Close()

	post := func(q string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	post("op=blackhole&peer=1")
	post("op=latency&dur=50ms")
	post("op=drop&value=0.25")

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := string(body)
	for _, want := range []string{`"blackholed":[1]`, `"latency_ms":50`, `"drop":0.25`} {
		if !strings.Contains(got, want) {
			t.Errorf("fault status %s missing %s", got, want)
		}
	}
	if !c.nodes[0].flt.blackholed(1) {
		t.Error("peer 1 not blackholed after POST")
	}
	post("op=heal&peer=1")
	post("op=latency&dur=0s")
	post("op=drop&value=0")
	if c.nodes[0].flt.blackholed(1) {
		t.Error("peer 1 still blackholed after heal")
	}

	bad, err := http.Post(srv.URL+"?op=drop&value=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("drop rate 2 accepted with status %d", bad.StatusCode)
	}
}

// repairEnv builds a 12-node cluster — initiator 0, responder 11, four
// 2-relay paths, two spare relays (9, 10) for repair — with a
// repair-enabled session.
func repairEnv(t *testing.T) (*liveSessionEnv, *LiveSession) {
	t.Helper()
	e := newLiveSessionEnv(t, 12, 11)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 11, SessionOptions{
		R:             2,
		AckTimeout:    1500 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Teardown)
	return e, sess
}

// awaitRepair polls until the session is back at full path width.
func awaitRepair(t *testing.T, sess *LiveSession, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if sess.AlivePaths() >= want {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("session stuck at %d alive paths, want %d", sess.AlivePaths(), want)
}

// TestLiveSessionRepairSurvivesFaults is the chaos-oracle's live half
// in-process, table-driven over the fault kinds the live backend
// injects: a session under each fault detects the dead path via
// probe/ack liveness, rebuilds through fresh relays, and keeps
// delivering with zero message loss.
func TestLiveSessionRepairSurvivesFaults(t *testing.T) {
	cases := []struct {
		name   string
		inject func(t *testing.T, e *liveSessionEnv)
	}{
		{
			// A relay process dies outright (the live backend's SIGKILL).
			name: "crash",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[2].Close()
			},
		},
		{
			// The initiator is partitioned from a first-hop relay (the
			// live backend's blackhole).
			name: "partition",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[0].BlackholePeer(3, 0)
				e.c.nodes[3].BlackholePeer(0, 0)
			},
		},
		{
			// A mid-path relay turns pathologically slow — beyond the
			// ack timeout, indistinguishable from dead to §4.5.
			name: "slow-link",
			inject: func(t *testing.T, e *liveSessionEnv) {
				e.c.nodes[5].SetFaultLatency(4 * time.Second)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, sess := repairEnv(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// Healthy baseline.
			mid, err := sess.Send([]byte("before the fault"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid); err != nil {
				t.Fatalf("baseline message lost: %v", err)
			}

			tc.inject(t, e)

			// Mid-stream traffic while the detector and repair work.
			mid2, err := sess.Send([]byte("mid-stream through the fault"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid2); err != nil {
				t.Fatalf("mid-fault message lost: %v", err)
			}

			// The probe detector must condemn the path (paths_dead > 0),
			// and repair must then restore full width through the spare
			// relays (repaired > 0).
			reg := e.c.nodes[0].Metrics()
			deadline := time.Now().Add(20 * time.Second)
			for reg.Counter("session.paths_dead").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("detector never condemned the faulted path")
				}
				time.Sleep(100 * time.Millisecond)
			}
			for reg.Counter("live.repair.repaired").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("repair never completed (failed=%d)",
						reg.Counter("live.repair.failed").Value())
				}
				time.Sleep(100 * time.Millisecond)
			}
			awaitRepair(t, sess, 4)

			// Post-repair traffic at full width.
			mid3, err := sess.Send([]byte("after repair"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Await(ctx, mid3); err != nil {
				t.Fatalf("post-repair message lost: %v", err)
			}
			e.await(t, mid3)
		})
	}
}

// TestLiveSessionRetransmitDeliversWithoutRepair pins the zero-loss
// guarantee of the retransmission layer alone: a message whose first
// round loses a segment to a dead path is completed by retransmitting
// the missing segment over the survivors.
func TestLiveSessionRetransmitDeliversWithoutRepair(t *testing.T) {
	e := newLiveSessionEnv(t, 8, 7)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4},
	}, 7, SessionOptions{
		R:          1, // m = 2 of 2: every segment must arrive
		AckTimeout: time.Second,
		Repair:     true,
		// Long probe interval: this test exercises retransmission, not
		// probing; spare relays 5, 6 exist but repair is incidental.
		ProbeInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Kill a mid-path relay: slot 0's segment will vanish in flight.
	e.c.nodes[2].Close()

	mid, err := sess.Send([]byte("needs every segment"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sess.Await(ctx, mid); err != nil {
		t.Fatalf("message lost despite retransmit budget: %v", err)
	}
	if got := e.await(t, mid); string(got) != "needs every segment" {
		t.Fatalf("delivered %q", got)
	}
	if v := e.c.nodes[0].Metrics().Counter("session.retransmits").Value(); v == 0 {
		t.Error("delivery needed no retransmit — test lost its teeth")
	}
}

// TestDegradedSheddingAndReadyz checks graceful degradation: a session
// below full width marks the node degraded, sheds cover traffic first,
// and /readyz stays 200 while saying so.
func TestDegradedSheddingAndReadyz(t *testing.T) {
	e := newLiveSessionEnv(t, 10, 9)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 9, SessionOptions{
		R:             2,
		AckTimeout:    time.Second,
		CoverInterval: 100 * time.Millisecond,
		CoverSize:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Cover flows while healthy.
	deadline := time.Now().Add(10 * time.Second)
	node := e.c.nodes[0]
	for node.Metrics().Counter("live.cover_sent").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cover traffic emitted")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Kill both relays of one path and force the detector's hand.
	e.c.nodes[1].Close()
	e.c.nodes[2].Close()
	mid, _ := sess.Send([]byte("trigger the detector"))
	_ = mid
	for sess.AlivePaths() == 4 {
		if time.Now().After(deadline) {
			t.Fatal("detector never condemned the dead path")
		}
		time.Sleep(100 * time.Millisecond)
	}

	if !sess.Degraded() {
		t.Fatal("session below full width not degraded")
	}
	if h := node.Health(); h.DegradedSessions != 1 {
		t.Fatalf("health degraded_sessions = %d, want 1", h.DegradedSessions)
	}
	if g := node.Metrics().Gauge("live.degraded").Value(); g != 1 {
		t.Fatalf("live.degraded = %v, want 1", g)
	}

	// Cover is shed while degraded.
	shedBefore := node.Metrics().Counter("live.cover_shed").Value()
	deadline = time.Now().Add(10 * time.Second)
	for node.Metrics().Counter("live.cover_shed").Value() == shedBefore {
		if time.Now().After(deadline) {
			t.Fatal("degraded session never shed cover traffic")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /readyz: still 200, but the body says degraded.
	readyCacheTTLSaved := readyCacheTTL
	readyCacheTTL = 0
	defer func() { readyCacheTTL = readyCacheTTLSaved }()
	srv := httptest.NewServer(node.ReadyzHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded node not ready: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz body %q does not surface degradation", body)
	}
}

// TestSendBoundedInflight pins the bounded-queue contract: Send rejects
// work past MaxInflight instead of buffering without limit.
func TestSendBoundedInflight(t *testing.T) {
	e := newLiveSessionEnv(t, 6, 5)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2},
	}, 5, SessionOptions{
		R:           1,
		AckTimeout:  30 * time.Second, // nothing resolves during the test
		MaxInflight: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	// Stop acks from resolving messages: blackhole the first relay after
	// construction so sends vanish locally and stay pending.
	e.c.nodes[0].BlackholePeer(1, 0)
	for i := 0; i < 3; i++ {
		if _, err := sess.Send([]byte("fill")); err != nil {
			t.Fatalf("send %d rejected below the bound: %v", i, err)
		}
	}
	if _, err := sess.Send([]byte("overflow")); err == nil {
		t.Fatal("send beyond MaxInflight accepted")
	}
	if v := e.c.nodes[0].Metrics().Counter("session.send_rejected").Value(); v != 1 {
		t.Fatalf("session.send_rejected = %d, want 1", v)
	}
}

// TestTeardownLeavesNoGoroutines pins the session's goroutine hygiene:
// construct, send, lose a relay and repair its slot, then Teardown and
// Close the fleet — the goroutine count must return to its baseline.
// Every ack loop, of the original paths and of the repaired one, has to
// end with its path or its session.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newLiveSessionEnv(t, 12, 11)
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 11, SessionOptions{
		R:             2,
		AckTimeout:    500 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mid, err := sess.Send([]byte("before the crash"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Await(ctx, mid); err != nil {
		t.Fatal(err)
	}

	e.c.nodes[2].Close()
	repaired := e.c.nodes[0].Metrics().Counter("live.repair.repaired")
	deadline := time.Now().Add(20 * time.Second)
	for repaired.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never repaired")
		}
		time.Sleep(50 * time.Millisecond)
	}
	awaitRepair(t, sess, 4)

	sess.Teardown()
	for _, node := range e.c.nodes {
		node.Close()
	}
	// Armed ack-timeout timers may still fire once; give them and the
	// closing connection handlers a moment to drain.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines above the baseline of %d after Teardown and Close:\n%s",
				runtime.NumGoroutine()-base, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
