package livenet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/onion"
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

// addrOf is a readdressed rewrite that moves one peer to addr.
func addrOf(id netsim.NodeID, addr string) func(netsim.NodeID, string) string {
	return func(p netsim.NodeID, was string) string {
		if p == id {
			return addr
		}
		return was
	}
}

// TestBlackholedPeerCannotStallInitiator is the deadline regression
// test: a first relay that accepts connections but never acks must not
// stall ConstructCtx past its context deadline.
func TestBlackholedPeerCannotStallInitiator(t *testing.T) {
	c := startCluster(t, 5, nil)
	// Point node 0's view of relay 1 at the silent server.
	c.nodes[0].SetRoster(c.readdressed(t, addrOf(1, silentServer(t).Addr().String())))

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.nodes[0].ConstructCtx(ctx, []netsim.NodeID{1, 2}, 4)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("construction through a silent relay succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("initiator stalled %v past its 300ms deadline", elapsed)
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

// dataTo is a data frame for peer to.
func dataTo(to netsim.NodeID) onion.Send {
	s := rawSend(onion.KindData, 7, []byte("frame"))
	s.To = to
	return s
}

// sendFailedDrops counts the send_failed drops traced from node to peer.
func sendFailedDrops(trace *obs.Collector, node, peer int) int {
	n := 0
	for _, e := range trace.Events() {
		if e.Type == obs.MsgDropped && e.Reason == obs.ReasonSendFailed && e.Node == node && e.Peer == peer {
			n++
		}
	}
	return n
}

// TestRefusedDialFailsOnce: a frame to a peer that refuses the
// connection (a closed port) is dialled once and fails as fast as the
// refusal — well inside the 50 ms a backoff before a second attempt
// would have cost at least — as one send error and one traced drop.
// Trying again is the session machine's job, not the frame's.
func TestRefusedDialFailsOnce(t *testing.T) {
	trace := obs.NewCollector()
	c := startCluster(t, 2, nil, func(cfg *Config) { cfg.Tracer = trace })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	c.nodes[0].SetRoster(c.readdressed(t, addrOf(1, closed)))

	start := time.Now()
	err = c.nodes[0].send(dataTo(1), nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a send to a closed port succeeded")
	}
	if elapsed >= 50*time.Millisecond {
		t.Fatalf("a refused send failed after %v, want under 50ms (one attempt): %v", elapsed, err)
	}
	if v := c.nodes[0].Metrics().Counter("live.send_errors").Value(); v != 1 {
		t.Fatalf("live.send_errors = %d, want 1", v)
	}
	if n := sendFailedDrops(trace, 0, 1); n != 1 {
		t.Fatalf("%d send-failed drops traced, want 1", n)
	}
}

// TestInjectedLatencyCutAtDeadline: injected latency longer than what is
// left of a frame's budget ends at the deadline, not after the delay —
// under a context whose Done is nil, as a frame of send's has, so that
// only the bounded timer ends the wait, and under a construction's
// context alike — and a cut frame is a send error.
func TestInjectedLatencyCutAtDeadline(t *testing.T) {
	c := startCluster(t, 2, nil)
	n := c.nodes[0]
	n.SetFaultLatency(time.Minute)
	const budget = 50 * time.Millisecond
	for i, under := range []func() (context.Context, context.CancelFunc){
		func() (context.Context, context.CancelFunc) {
			return dialDeadline(time.Now().Add(budget)), func() {}
		},
		func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), budget)
		},
	} {
		ctx, cancel := under()
		start := time.Now()
		err := n.sendCtx(ctx, dataTo(1), nil)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("case %d: want the deadline, got %v", i, err)
		}
		if elapsed < budget*9/10 || elapsed > budget+time.Second {
			t.Fatalf("case %d: a frame delayed a minute under a %v budget ended after %v", i, budget, elapsed)
		}
		if v := n.Metrics().Counter("live.send_errors").Value(); v != uint64(i+1) {
			t.Fatalf("case %d: live.send_errors = %d, want %d", i, v, i+1)
		}
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

// FuzzFaultHandler feeds arbitrary methods and query strings — the
// whole request, a POST to /debug/fault carries no body — to the fault
// controller's HTTP surface. It must answer 200, 400 or 405 without
// panicking, and whatever it accepted must read back: the GET that
// follows is well-formed JSON holding a probability, a non-negative
// delay and the peer just blackholed (or not the one just healed).
func FuzzFaultHandler(f *testing.F) {
	h := startCluster(f, 2, nil).nodes[0].FaultHandler()
	f.Add("POST", "op=blackhole&peer=1")
	f.Add("POST", "op=blackhole&peer=1&dur=5s")
	f.Add("POST", "op=heal&peer=1")
	f.Add("POST", "op=latency&dur=200ms")
	f.Add("POST", "op=drop&value=0.3")
	f.Add("POST", "op=drop&value=NaN")
	f.Add("POST", "op=latency&dur=-1s")
	f.Add("POST", "op=blackhole&peer=99999999999999999999")
	f.Add("POST", "op=%zz;peer")
	f.Add("PUT", "")
	f.Add("GET", "op=drop&value=1")
	serve := func(method, rawQuery string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, &http.Request{Method: method, URL: &url.URL{Path: "/debug/fault", RawQuery: rawQuery}})
		return rec
	}
	f.Fuzz(func(t *testing.T, method, rawQuery string) {
		rec := serve(method, rawQuery)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s ?%s: status %d", method, rawQuery, rec.Code)
		}
		var st faultStatus
		if err := json.Unmarshal(serve(http.MethodGet, "").Body.Bytes(), &st); err != nil {
			t.Fatalf("fault state unreadable after %s ?%s: %v", method, rawQuery, err)
		}
		if !(st.Drop >= 0 && st.Drop <= 1) || st.LatencyMS < 0 || !sort.IntsAreSorted(st.Blackholed) {
			t.Fatalf("fault state %+v after %s ?%s", st, method, rawQuery)
		}
		if method != http.MethodPost {
			return
		}
		q := (&url.URL{RawQuery: rawQuery}).Query()
		peer, _ := strconv.Atoi(q.Get("peer"))
		listed := slices.Contains(st.Blackholed, peer)
		switch dur, _ := time.ParseDuration(q.Get("dur")); q.Get("op") {
		case "blackhole":
			if dur == 0 && !listed {
				t.Fatalf("peer %d accepted for blackholing, state %+v", peer, st)
			}
		case "heal":
			if listed {
				t.Fatalf("peer %d healed, state %+v", peer, st)
			}
		case "latency":
			if st.LatencyMS != dur.Milliseconds() {
				t.Fatalf("latency %v accepted, state %+v", dur, st)
			}
		case "drop":
			if v, _ := strconv.ParseFloat(q.Get("value"), 64); st.Drop != v {
				t.Fatalf("drop %v accepted, state %+v", v, st)
			}
		}
	})
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
		AckTimeout:    300 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 100 * time.Millisecond,
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
	waitFor(t, "the session to return to full width", func() bool { return sess.AlivePaths() >= want })
}

// TestLiveSessionRepairSurvivesFaults is the chaos-oracle's live half
// in-process, as a short smoke on real sockets over the fault kinds the
// live backend injects: a session under each fault detects the dead
// path via probe/ack liveness, rebuilds through fresh relays, and keeps
// delivering with zero message loss. The scenario's exact counts, its
// variants and the storms run under the virtual clock in
// internal/session; what is checked here is the TCP driver — timers,
// the build goroutine, metrics and trace events.
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
				e.c.nodes[5].SetFaultLatency(time.Second)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, sess := repairEnv(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var events pathEvents
			defer e.c.nodes[0].AttachTracer(&events)()

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

			// The detector must condemn the path (paths_dead > 0), and
			// repair must then restore full width through the spare
			// relays (repaired > 0) — traced as one path_repaired, the
			// event the simulator emits, not as a second path_built.
			reg := e.c.nodes[0].Metrics()
			waitFor(t, "the detector to condemn the faulted path", func() bool {
				return reg.Counter("session.paths_dead").Value() > 0
			})
			waitFor(t, "the repair to complete", func() bool {
				return reg.Counter("live.repair.repaired").Value() > 0
			})
			awaitRepair(t, sess, 4)
			if built, repaired := events.count(obs.PathBuilt), events.count(obs.PathRepaired); built != 1 || repaired != 1 {
				t.Fatalf("the repair traced %d path_built and %d path_repaired, want the construction and the repair, one each", built, repaired)
			}

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

// TestLiveRepairKeepsPathsDisjoint is the regression for replacement
// paths sharing a relay: three slots die in one probe round, so their
// replacements are asked for together and built one after another. Each
// must avoid the relays of the ones built just before it, which no
// exclusion set computed at condemnation can name. Six spares for three
// 2-relay replacements: a choice made on stale knowledge collides more
// than nine times in ten. (A replacement may first try through a dead
// relay — once its slot stands again, a condemned path's relays are as
// fresh as any — hence the short construction timeout.)
func TestLiveRepairKeepsPathsDisjoint(t *testing.T) {
	e := newLiveSessionEnv(t, 16, 15, func(c *Config) { c.ConstructTimeout = 300 * time.Millisecond })
	sess, err := e.c.nodes[0].NewLiveSessionOpts([][]netsim.NodeID{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}, 15, SessionOptions{
		R:             2,
		AckTimeout:    200 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	for _, id := range []int{2, 4, 6} {
		e.c.nodes[id].Close()
	}
	repaired := e.c.nodes[0].Metrics().Counter("live.repair.repaired")
	waitFor(t, "three slots to be repaired", func() bool { return repaired.Value() >= 3 })
	awaitRepair(t, sess, 4)
	slotOf := make(map[netsim.NodeID]int)
	for i := range sess.paths {
		for _, r := range sess.paths[i].Load().Relays {
			if j, dup := slotOf[r]; dup {
				t.Fatalf("relay %d serves slots %d and %d", r, j, i)
			}
			slotOf[r] = i
		}
	}
}

// TestRefusedReplacementWaitsForTheProbeTick: a replacement path is
// launched once per Build. Slot 0 runs through relay 1, slot 1 through
// relay 2, 5 is the responder, and 3 and 4 are the fresh relays. The
// initiator refuses 1, so a probe condemns slot 0, and refuses 3 and 4,
// so its first replacement fails at once: live.repair.failed reaches 1
// after one launch, and nothing launches again until a probe tick's
// Repairs asks. With the other fresh relay healed, some later tick
// rebuilds the slot through it. Every refused launch is one
// live.repair.failed.
func TestRefusedReplacementWaitsForTheProbeTick(t *testing.T) {
	const tick = 100 * time.Millisecond
	trace := obs.NewCollector()
	e := newLiveSessionEnv(t, 6, 5, func(cfg *Config) { cfg.Tracer = trace })
	init := e.c.nodes[0]
	sess, err := init.NewLiveSessionOpts([][]netsim.NodeID{{1}, {2}}, 5, SessionOptions{
		R: 2, AckTimeout: 50 * time.Millisecond, Repair: true, ProbeInterval: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	for _, r := range []netsim.NodeID{1, 3, 4} {
		init.BlackholePeer(r, 0)
	}

	failed := init.Metrics().Counter("live.repair.failed")
	waitFor(t, "the first replacement to be refused", func() bool { return failed.Value() >= 1 })
	first := launches(trace)[0]
	healed := 7 - first.Peer // the fresh relay the first launch did not try
	init.HealPeer(netsim.NodeID(healed))
	repaired := init.Metrics().Counter("live.repair.repaired")
	waitFor(t, "slot 0 to be rebuilt", func() bool { return repaired.Value() >= 1 })
	if got := sess.paths[0].Load().Relays; !slices.Equal(got, []netsim.NodeID{netsim.NodeID(healed)}) {
		t.Fatalf("slot 0 rebuilt through %v, want [%d]", got, healed)
	}

	all := launches(trace)
	refused, last := all[:len(all)-1], all[len(all)-1]
	if last.Type != obs.MsgSent || last.Peer != healed || len(refused) == 0 {
		t.Fatalf("launches %v: want refusals, then one through %d", all, healed)
	}
	if v := failed.Value(); v != uint64(len(refused)) {
		t.Fatalf("live.repair.failed = %d after %d refused launches, want one per launch", v, len(refused))
	}
	// After the first, which the condemning deadline asked for, only a
	// probe tick's Repairs asks again: no more launches than ticks, each
	// of which probes slot 1 at least.
	if probes := init.Metrics().Counter("live.repair.probes").Value(); uint64(len(all)) > probes+1 {
		t.Fatalf("%d launches in %d probe rounds: a replacement launched without a tick asking", len(all), probes)
	}
}

// launches returns node 0's first frames toward relays 3 and 4 — a
// construction each, refused or sent — up to the first that left.
func launches(trace *obs.Collector) []obs.Event {
	var out []obs.Event
	for _, ev := range trace.Events() {
		if ev.Node != 0 || (ev.Peer != 3 && ev.Peer != 4) {
			continue
		}
		if ev.Type == obs.MsgDropped && ev.Reason == obs.ReasonBlackholed || ev.Type == obs.MsgSent {
			out = append(out, ev)
			if ev.Type == obs.MsgSent {
				break
			}
		}
	}
	return out
}

// pathEvents records a node's path lifecycle trace events.
type pathEvents struct {
	mu  sync.Mutex
	got []obs.Event
}

func (p *pathEvents) Emit(e obs.Event) {
	if e.Type == obs.PathBuilt || e.Type == obs.PathRepaired {
		p.mu.Lock()
		p.got = append(p.got, e)
		p.mu.Unlock()
	}
}

func (p *pathEvents) count(typ obs.Type) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.got {
		if e.Type == typ {
			n++
		}
	}
	return n
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
		AckTimeout: 300 * time.Millisecond,
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
		AckTimeout:    300 * time.Millisecond,
		CoverInterval: 20 * time.Millisecond,
		CoverSize:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()

	// Cover flows while healthy.
	node := e.c.nodes[0]
	waitFor(t, "cover traffic", func() bool { return node.Metrics().Counter("live.cover_sent").Value() > 0 })

	// Kill both relays of one path and force the detector's hand.
	e.c.nodes[1].Close()
	e.c.nodes[2].Close()
	if _, err := sess.Send([]byte("trigger the detector")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the detector to condemn the dead path", func() bool { return sess.AlivePaths() < 4 })

	if !sess.Degraded() {
		t.Fatal("session below full width not degraded")
	}
	if g := node.Metrics().Gauge("live.degraded").Value(); g != 1 {
		t.Fatalf("live.degraded = %v, want 1", g)
	}

	// Cover is shed while degraded.
	shedBefore := node.Metrics().Counter("live.cover_shed").Value()
	waitFor(t, "the degraded session to shed cover", func() bool {
		return node.Metrics().Counter("live.cover_shed").Value() > shedBefore
	})

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
// The session's one goroutine, the path builder, has to end with it.
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
	waitFor(t, "the slot to be repaired", func() bool { return repaired.Value() > 0 })
	awaitRepair(t, sess, 4)

	sess.Teardown()
	for _, node := range e.c.nodes {
		node.Close()
	}
	awaitGoroutines(t, base)
}

// TestTeardownStopsTimers is the real-socket half of the regression for
// timers outliving Teardown (the virtual-clock half is
// session.TestTeardownDisarms): the old session's probe timers had no
// quit check, so probes outstanding at Teardown condemned the paths of
// a session that no longer existed — session.paths_dead +1 per path and
// a node.degraded +1 that nothing ever undid (/readyz "degraded: 1
// sessions" for good). 2×2 session, a responder with no collector so
// nothing is ever acked, Teardown while the first probe rounds are
// outstanding.
func TestTeardownStopsTimers(t *testing.T) {
	c := startCluster(t, 6, map[int]DataFunc{5: func(ReplyHandle, []byte) {}})
	node := c.nodes[0]
	sess, err := node.NewLiveSessionOpts([][]netsim.NodeID{{1, 2}, {3, 4}}, 5, SessionOptions{
		R:             2,
		AckTimeout:    300 * time.Millisecond,
		Repair:        true,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	probes := node.Metrics().Counter("live.repair.probes")
	waitFor(t, "a probe round to go out", func() bool { return probes.Value() >= 2 })
	sess.Teardown()
	time.Sleep(500 * time.Millisecond) // every armed deadline has fired by now
	if dead := node.Metrics().Counter("session.paths_dead").Value(); dead != 0 {
		t.Errorf("session.paths_dead = %d after Teardown, want 0", dead)
	}
	if g := node.Metrics().Gauge("live.degraded").Value(); g != 0 {
		t.Errorf("live.degraded = %v after Teardown, want 0", g)
	}
}
