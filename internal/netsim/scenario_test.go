package netsim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/scenario.golden")

// TestScenarioGolden walks one network through every branch of Send and
// of delivery — sender down, receiver down on arrival, no handler, link
// loss, a partition, a targeted drop, slowed links, handlers that send
// from inside their delivery, and 10 000 messages in flight at once —
// and compares the counters, the registry, what the handlers saw and
// the full engine + network trace against testdata/scenario.golden,
// which was recorded on the closure-per-delivery implementation this
// one replaced. Whatever carries a message between Send and its
// handler must not show in any of them.
func TestScenarioGolden(t *testing.T) {
	var trace bytes.Buffer
	tr := obs.NewJSONL(&trace)
	reg := obs.NewRegistry()
	eng := sim.NewEngine(42)
	lat, err := topology.Uniform(8, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net := New(eng, lat)
	eng.SetTracer(tr)
	net.SetTracer(tr)
	net.BindMetrics(reg)

	// What the handlers saw: every delivery folds its sender, receiver,
	// payload and tag into one sum, so a message handed to the wrong
	// node or with another message's contents changes it.
	var seen, deliveries uint64
	note := func(to NodeID) HandlerFunc {
		return func(from NodeID, msg Message) {
			deliveries++
			seen = seen*1099511628211 + uint64(from)<<40 + uint64(to)<<32 + uint64(msg.Payload.(int))<<8 + uint64(msg.Trace.Hop)
		}
	}
	for _, id := range []NodeID{1, 2, 3, 4} {
		net.SetHandler(id, note(id))
	}
	// Nodes 5 and 7 bounce a message between them, each sending from
	// inside its delivery, until the tag has made six hops. Node 6 has
	// no handler.
	bounce := func(self, peer NodeID) HandlerFunc {
		return func(from NodeID, msg Message) {
			note(self)(from, msg)
			if msg.Trace.Hop < 6 {
				net.Send(self, peer, Message{Payload: msg.Payload.(int) + 1, Size: msg.Size + 1, Trace: msg.Trace.Next()})
			}
		}
	}
	net.SetHandler(5, bounce(5, 7))
	net.SetHandler(7, bounce(7, 5))

	tag := func(i int) obs.Tag { return obs.Tag{ID: uint64(1000 + i), Seg: int32(i % 8), Slot: int32(i % 4)} }
	at := func(ms int, fn func()) { eng.ScheduleAt(sim.Time(ms)*sim.Millisecond, fn) }

	at(0, func() { // sender down
		net.SetUp(0, false)
		if net.Send(0, 1, Message{Payload: 1, Size: 11}) {
			t.Error("down sender transmitted")
		}
		net.SetUp(0, true)
	})
	at(10, func() { net.Send(0, 2, Message{Payload: 2, Size: 12, Trace: tag(2)}) }) // receiver down on arrival
	at(20, func() { net.SetUp(2, false) })
	at(100, func() { net.SetUp(2, true) })
	at(110, func() { net.Send(0, 6, Message{Payload: 3, Size: 13}) }) // no handler
	at(200, func() {                                                  // link loss
		net.SetLossRate(0.3)
		for i := 0; i < 200; i++ {
			net.Send(NodeID(i%4), NodeID(1+i%4), Message{Payload: i, Size: 100 + i, Trace: tag(i)})
		}
		net.SetLossRate(0)
	})
	at(300, func() { // partition, targeted drop, slowed links
		net.BlockLink(1, 3)
		for i := 0; i < 3; i++ {
			net.Send(1, 3, Message{Payload: i, Size: 20, Trace: tag(i)})
		}
		net.Send(3, 1, Message{Payload: 9, Size: 21}) // the other direction is open
		net.UnblockLink(1, 3)
		net.SetInboundDrop(4, 0.5)
		for i := 0; i < 100; i++ {
			net.Send(NodeID(i%3), 4, Message{Payload: i, Size: 30})
		}
		net.SetInboundDrop(4, 0)
		net.SetLinkExtra(0, 1, 70*sim.Millisecond)
		net.SetLinkSlow(0, 3, 2.5)
		net.Send(0, 1, Message{Payload: 70, Size: 40})
		net.Send(0, 3, Message{Payload: 25, Size: 41})
		net.Send(0, 2, Message{Payload: 0, Size: 0}) // arrives before both
	})
	at(400, func() { // handlers that send from inside their delivery
		for i := 0; i < 5; i++ {
			net.Send(0, 5, Message{Payload: 100 * i, Size: 50, Trace: tag(i)})
		}
	})
	at(1000, func() { // 10 000 in flight at once, some toward a node that dies first
		for i := 0; i < 10000; i++ {
			net.Send(NodeID(i%5), NodeID(1+(i/5)%4), Message{Payload: i, Size: i % 1500, Trace: tag(i)})
		}
		if got := eng.Pending(); got < 10000 {
			t.Errorf("%d events queued with 10 000 messages in flight", got)
		}
	})
	at(1010, func() { net.SetUp(3, false) })
	eng.RunAll()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := net.flights.Len(); n != 0 {
		t.Errorf("%d in-flight slots still occupied after the engine drained", n)
	}

	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var got bytes.Buffer
	fmt.Fprintf(&got, "stats %+v\n", net.Stats())
	for _, name := range names {
		fmt.Fprintf(&got, "counter %s %d\n", name, snap.Counters[name])
	}
	fmt.Fprintf(&got, "gauge net.up_nodes %g\n", snap.Gauges["net.up_nodes"])
	fmt.Fprintf(&got, "handlers deliveries %d seen %#x\n", deliveries, seen)
	fmt.Fprintf(&got, "engine executed %d now %d\n", eng.Executed(), eng.Now())
	fmt.Fprintf(&got, "trace events %d sha256 %x\n", tr.Events(), sha256.Sum256(trace.Bytes()))

	const golden = "testdata/scenario.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("scenario diverged from %s\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
