package onion

import (
	"bytes"
	"testing"

	"resilientmix/internal/bufpool"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// env is a small fully-wired onion network for tests.
type env struct {
	eng   *sim.Engine
	net   *netsim.Network
	dir   *Directory
	nodes []*Node

	// captured application events
	received  [][]byte // payloads seen by responders
	replies   [][]byte // reverse payloads seen by initiators
	replyFrom []netsim.NodeID
	// onDelivered, if set, observes each responder delivery time.
	onDelivered func(at sim.Time)
}

func newEnv(t *testing.T, n int, suite onioncrypt.Suite, seed int64) *env {
	t.Helper()
	eng := sim.NewEngine(seed)
	lat, err := topology.Uniform(n, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(eng, lat)
	dir, err := NewDirectory(suite, eng.RNG(), n)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{eng: eng, net: net, dir: dir}
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		mux := netsim.NewMux()
		node := NewNode(net, id, dir, mux, NodeConfig{
			OnReverse: func(p *Path, from netsim.NodeID, plain []byte, buf *[]byte, flow *metrics.Flow) {
				e.replies = append(e.replies, append([]byte(nil), plain...))
				e.replyFrom = append(e.replyFrom, from)
				bufpool.Release(buf)
			},
			OnData: func(h ReplyHandle, plain []byte) {
				e.received = append(e.received, append([]byte(nil), plain...))
				if e.onDelivered != nil {
					e.onDelivered(eng.Now())
				}
				// Echo back a reply so reverse routing is exercised.
				h.Reply(append([]byte("echo:"), plain...), h.Flow)
			},
		})
		e.nodes = append(e.nodes, node)
		net.SetHandler(id, mux)
	}
	return e
}

func construct(t *testing.T, e *env, init int, relays []netsim.NodeID, responder netsim.NodeID) (*Path, bool) {
	t.Helper()
	var ok bool
	var done bool
	p, err := e.nodes[init].Initiator.Construct(relays, responder, nil, func(_ *Path, success bool) {
		ok = success
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 30*sim.Second)
	if !done {
		t.Fatal("construction callback never fired")
	}
	return p, ok
}

func TestConstructAndSendBothSuites(t *testing.T) {
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		t.Run(suite.Name(), func(t *testing.T) {
			e := newEnv(t, 8, suite, 1)
			relays := []netsim.NodeID{2, 3, 4}
			p, ok := construct(t, e, 0, relays, 7)
			if !ok {
				t.Fatal("construction failed on a healthy network")
			}
			if p.State != PathEstablished {
				t.Fatalf("path state = %v", p.State)
			}
			msg := []byte("anonymous hello")
			if err := e.nodes[0].Initiator.SendData(p, msg, nil); err != nil {
				t.Fatal(err)
			}
			e.eng.Run(e.eng.Now() + 10*sim.Second)
			if len(e.received) != 1 || !bytes.Equal(e.received[0], msg) {
				t.Fatalf("responder received %q", e.received)
			}
			// The echo reply must come back through the reverse path.
			if len(e.replies) != 1 || !bytes.Equal(e.replies[0], append([]byte("echo:"), msg...)) {
				t.Fatalf("initiator replies = %q", e.replies)
			}
			if e.replyFrom[0] != 7 {
				t.Fatalf("reply attributed to %d, want 7", e.replyFrom[0])
			}
		})
	}
}

// TestPathOnReverse checks where reverse traffic ends at the
// initiator: at the path's own callback when it has one, at the node's
// otherwise, and at neither once the path is forgotten.
func TestPathOnReverse(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 1)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed on a healthy network")
	}
	var mine [][]byte
	p.OnReverse = func(got *Path, _ netsim.NodeID, plain []byte, buf *[]byte, _ *metrics.Flow) {
		if got != p {
			t.Error("callback handed another path")
		}
		mine = append(mine, append([]byte(nil), plain...))
		bufpool.Release(buf)
	}
	send := func(msg string) {
		if err := e.nodes[0].Initiator.SendData(p, []byte(msg), nil); err != nil {
			t.Fatal(err)
		}
		e.eng.Run(e.eng.Now() + 10*sim.Second)
	}
	send("a")
	if len(mine) != 1 || string(mine[0]) != "echo:a" || len(e.replies) != 0 {
		t.Fatalf("path callback got %q, node callback %q", mine, e.replies)
	}
	e.nodes[0].Initiator.Forget(p)
	send("b")
	if len(e.received) != 2 || len(mine) != 1 || len(e.replies) != 0 {
		t.Fatalf("after Forget: delivered %d, path callback %q, node callback %q", len(e.received), mine, e.replies)
	}
}

func TestSingleRelayPath(t *testing.T) {
	e := newEnv(t, 4, onioncrypt.Null{}, 2)
	p, ok := construct(t, e, 0, []netsim.NodeID{2}, 3)
	if !ok {
		t.Fatal("L=1 construction failed")
	}
	if err := e.nodes[0].Initiator.SendData(p, []byte("short"), nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 5*sim.Second)
	if len(e.received) != 1 {
		t.Fatal("L=1 delivery failed")
	}
}

func TestConstructionFailsWhenRelayDown(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 3)
	e.net.SetUp(3, false)
	_, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if ok {
		t.Fatal("construction succeeded through a dead relay")
	}
}

func TestConstructionTimeoutMarksFailed(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 4)
	e.net.SetUp(4, false)
	var result *Path
	p, err := e.nodes[0].Initiator.Construct([]netsim.NodeID{2, 3, 4}, 7, nil, func(pp *Path, ok bool) {
		if ok {
			t.Error("unexpected success")
		}
		result = pp
	})
	if err != nil {
		t.Fatal(err)
	}
	e.eng.Run(DefaultConstructTimeout + sim.Second)
	if result == nil {
		t.Fatal("timeout callback never fired")
	}
	if p.State != PathFailed {
		t.Fatalf("state = %v, want failed", p.State)
	}
}

// TestForgetMidConstructionDisarmsTheTimeout: a path forgotten while it
// is still constructing gives its record back, and the next launch in
// the world — at another initiator, here — takes it. The forgotten
// construction's timeout must not fire into the record's new life: the
// new path, launched 100 ms before the old timeout and acked ≈ 400 ms
// after its launch, must stand, its callback fired once, with true.
func TestForgetMidConstructionDisarmsTheTimeout(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 6)
	e.net.SetUp(4, false) // the first path's ack never comes
	old, err := e.nodes[0].Initiator.Construct([]netsim.NodeID{2, 3, 4}, 7, nil, func(*Path, bool) {
		t.Error("the forgotten path's callback fired")
	})
	if err != nil {
		t.Fatal(err)
	}
	e.eng.Run(DefaultConstructTimeout - 100*sim.Millisecond)
	e.nodes[0].Initiator.Forget(old)
	var results []bool
	p, err := e.nodes[1].Initiator.Construct([]netsim.NodeID{2, 3, 5}, 6, nil, func(_ *Path, ok bool) {
		results = append(results, ok)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p != old {
		t.Fatal("the launch did not take the record the Forget gave back")
	}
	e.eng.Run(e.eng.Now() + 2*DefaultConstructTimeout)
	if len(results) != 1 || !results[0] || p.State != PathEstablished {
		t.Fatalf("the new path's callback reported %v and it is %v; want one success and established", results, p.State)
	}
	if e.nodes[0].Initiator.Paths() != 0 || e.nodes[1].Initiator.Paths() != 1 {
		t.Fatalf("initiators hold %d and %d paths, want 0 and 1", e.nodes[0].Initiator.Paths(), e.nodes[1].Initiator.Paths())
	}
	// A second Forget of a record already given back, and since taken,
	// must not take the new path's away.
	e.nodes[0].Initiator.Forget(old)
	if e.nodes[1].Initiator.Paths() != 1 {
		t.Fatal("a stale Forget dropped the record's new path")
	}
}

func TestRelayFailureBreaksEstablishedPath(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 5)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	// Middle relay dies (and loses its path state, §4.3).
	e.net.SetUp(3, false)
	e.net.SetUp(3, true) // rejoins immediately, but state is gone
	if err := e.nodes[0].Initiator.SendData(p, []byte("lost"), nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if len(e.received) != 0 {
		t.Fatal("message delivered through a relay that lost its state")
	}
}

func TestEndpointCollisionRejected(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 6)
	if _, err := e.nodes[0].Initiator.Construct([]netsim.NodeID{0, 2, 3}, 7, nil, nil); err == nil {
		t.Fatal("initiator as relay accepted")
	}
	if _, err := e.nodes[0].Initiator.Construct([]netsim.NodeID{7, 2, 3}, 7, nil, nil); err == nil {
		t.Fatal("responder as relay accepted")
	}
	if _, err := e.nodes[0].Initiator.Construct(nil, 7, nil, nil); err == nil {
		t.Fatal("empty relay list accepted")
	}
}

func TestSendOnUnestablishedPath(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 7)
	e.net.SetUp(3, false)
	p, _ := e.nodes[0].Initiator.Construct([]netsim.NodeID{2, 3, 4}, 7, nil, func(*Path, bool) {})
	if err := e.nodes[0].Initiator.SendData(p, []byte("x"), nil); err == nil {
		t.Fatal("SendData on a constructing path accepted")
	}
}

func TestPathReuseNewResponder(t *testing.T) {
	// §4.4: multiplex a second responder over an established path.
	e := newEnv(t, 10, onioncrypt.Null{}, 8)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	if err := e.nodes[0].Initiator.SendDataTo(p, 9, []byte("to-nine"), nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if len(e.received) != 1 || !bytes.Equal(e.received[0], []byte("to-nine")) {
		t.Fatalf("reused path delivery failed: %q", e.received)
	}
	// The echo reply from the new responder must reach the initiator and
	// be attributed to node 9.
	if len(e.replies) != 1 || e.replyFrom[0] != 9 {
		t.Fatalf("reply from reused path: %v from %v", e.replies, e.replyFrom)
	}
	// And the original responder must still be reachable afterwards.
	if err := e.nodes[0].Initiator.SendData(p, []byte("back-to-seven"), nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	if len(e.received) != 2 {
		t.Fatal("original responder unreachable after reuse")
	}
}

func TestBandwidthAccounting(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 9)
	relays := []netsim.NodeID{2, 3, 4}
	var cflow metrics.Flow
	var done bool
	_, err := e.nodes[0].Initiator.Construct(relays, 7, &cflow, func(p *Path, ok bool) {
		done = ok
	})
	if err != nil {
		t.Fatal(err)
	}
	e.eng.Run(30 * sim.Second)
	if !done {
		t.Fatal("construction failed")
	}
	// Construction: 3 onion hops + 3 ack hops (terminal relay acks to
	// its predecessor, which chains back to the initiator).
	if cflow.Messages != 6 {
		t.Fatalf("construct flow messages = %d, want 6", cflow.Messages)
	}
	if cflow.Bytes <= 0 {
		t.Fatal("construct flow bytes not accounted")
	}
}

func TestPayloadBandwidthMatchesModel(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 10)
	relays := []netsim.NodeID{2, 3, 4}
	p, ok := construct(t, e, 0, relays, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	var flow metrics.Flow
	plain := make([]byte, 1024)
	if err := e.nodes[0].Initiator.SendData(p, plain, &flow); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	// Forward: 4 links (I->2->3->4->7); the echo reply adds reverse
	// links. Check the forward sizes against the analytic model: the
	// outermost onion layer size plus framing.
	outer := PayloadOnionSize(onioncrypt.Null{}, len(relays), 1024)
	wantFirstLink := msgHeaderSize + 4 + outer
	if flow.Messages < 4 {
		t.Fatalf("flow messages = %d, want at least the 4 forward links", flow.Messages)
	}
	// First link must be the largest forward message; the onion shrinks
	// by one symmetric overhead per hop.
	if flow.Bytes < wantFirstLink {
		t.Fatalf("flow bytes %d below first-link size %d", flow.Bytes, wantFirstLink)
	}
	shrink := onioncrypt.Null{}.SymOverhead()
	wantForward := 0
	size := outer
	for i := 0; i < len(relays); i++ {
		wantForward += msgHeaderSize + 4 + size
		size -= shrink
	}
	// Final link carries the responder blob: dest field stripped too.
	if flow.Bytes < wantForward {
		t.Fatalf("accounted %d bytes, forward model alone predicts %d", flow.Bytes, wantForward)
	}
}

func TestTTLExpiryReclaimsState(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 11)
	// Short TTL node set.
	eng := sim.NewEngine(11)
	lat, _ := topology.Uniform(8, 100*sim.Millisecond)
	net := netsim.New(eng, lat)
	dir, _ := NewDirectory(onioncrypt.Null{}, eng.RNG(), 8)
	var nodes []*Node
	for i := 0; i < 8; i++ {
		mux := netsim.NewMux()
		nodes = append(nodes, NewNode(net, netsim.NodeID(i), dir, mux, NodeConfig{
			StateTTL: 30 * sim.Second,
			OnData:   func(ReplyHandle, []byte) {},
		}))
		net.SetHandler(netsim.NodeID(i), mux)
	}
	var established bool
	_, err := nodes[0].Initiator.Construct([]netsim.NodeID{2, 3, 4}, 7, nil, func(_ *Path, ok bool) { established = ok })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10 * sim.Second)
	if !established {
		t.Fatal("construction failed")
	}
	if nodes[2].Relay.States() != 1 {
		t.Fatalf("relay 2 states = %d, want 1", nodes[2].Relay.States())
	}
	// After two TTL periods with no refreshing traffic the state must be
	// reclaimed (§4.3 orphaned-state cleanup).
	eng.Run(2 * sim.Minute)
	if nodes[2].Relay.States() != 0 {
		t.Fatalf("relay 2 states = %d after TTL, want 0", nodes[2].Relay.States())
	}
	if nodes[2].Relay.Stats().Expired == 0 {
		t.Fatal("expiry not counted")
	}
	_ = e // silence the unused helper env (constructed to keep seeds aligned)
}

func TestRelayStatsProgress(t *testing.T) {
	e := newEnv(t, 8, onioncrypt.Null{}, 12)
	p, ok := construct(t, e, 0, []netsim.NodeID{2, 3, 4}, 7)
	if !ok {
		t.Fatal("construction failed")
	}
	if err := e.nodes[0].Initiator.SendData(p, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run(e.eng.Now() + 10*sim.Second)
	mid := e.nodes[3].Relay.Stats()
	if mid.Constructed != 1 || mid.DataRelayed != 1 || mid.ReverseHops != 1 || mid.AcksRelayed != 1 {
		t.Fatalf("middle relay stats = %+v", mid)
	}
	last := e.nodes[4].Relay.Stats()
	if last.Delivered != 1 {
		t.Fatalf("terminal relay stats = %+v", last)
	}
}

func TestDirectoryValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := NewDirectory(onioncrypt.Null{}, eng.RNG(), 0); err == nil {
		t.Fatal("empty directory accepted")
	}
	d, err := NewDirectory(onioncrypt.Null{}, eng.RNG(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 || d.Suite().Name() != "null" {
		t.Fatal("directory accessors broken")
	}
	if len(d.Public(1)) == 0 || len(d.Private(1)) == 0 {
		t.Fatal("keys missing")
	}
}

func TestPayloadOnionSizePrediction(t *testing.T) {
	// The analytic size must match the real encoding exactly for both
	// suites (bandwidth figures depend on it).
	for _, suite := range []onioncrypt.Suite{onioncrypt.ECIES{}, onioncrypt.Null{}} {
		eng := sim.NewEngine(13)
		rng := eng.RNG()
		keys := make([][]byte, 3)
		for i := range keys {
			keys[i], _ = suite.NewSymKey(rng)
		}
		respKey, _ := suite.NewSymKey(rng)
		kp, _ := suite.GenerateKeyPair(rng)
		sealed, _ := suite.Seal(rng, kp.Public, respKey)
		plain := make([]byte, 1024)
		body, err := BuildPayloadOnion(suite, rng, keys, 5, respKey, sealed, plain)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(body), PayloadOnionSize(suite, 3, 1024); got != want {
			t.Fatalf("%s: onion size %d, model predicts %d", suite.Name(), got, want)
		}
	}
}
