package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"runtime"
	"time"

	"resilientmix/internal/churn"
	"resilientmix/internal/erasure"
	"resilientmix/internal/gf256"
	"resilientmix/internal/livenet"
	"resilientmix/internal/membership"
	"resilientmix/internal/mixchoice"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onion"
	"resilientmix/internal/onioncrypt"
	"resilientmix/internal/shardworld"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
	"resilientmix/internal/wire"
)

// timeOp measures fn from outside: batches sized to about a millisecond
// run until budget is spent; the result is the median batch's ns per
// call and the mean allocations per call.
func timeOp(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm: lazy tables, pools, first-use allocations
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	batch := 1
	if one < time.Millisecond {
		batch = int(time.Millisecond/(one+1)) + 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var perOp []float64
	ops := 0
	start := time.Now()
	for len(perOp) < 3 || time.Since(start) < budget {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perOp = append(perOp, float64(time.Since(b0).Nanoseconds())/float64(batch))
		ops += batch
	}
	runtime.ReadMemStats(&ms)
	return median(perOp), float64(ms.Mallocs-mallocs) / float64(ops)
}

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}

// runMicro times calls into each layer's public functions at the
// workloads' sizes and stores the rows in res.layer.
func runMicro(budget time.Duration, res *result) error {
	us := func(name string, fn func()) {
		ns, _ := timeOp(budget, fn)
		res.layer[name] = ns / 1e3
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// gf256
	{
		dst, src := fill(4096), fill(4096)
		ns, _ := timeOp(budget, func() { gf256.MulAddSlice(dst, src, 0x53) })
		res.layer["gf256.muladd_slice_4k.mbps"] = 4096 / ns * 1e3
	}

	// erasure, at the shapes of live_small (m=1,n=2), live_repair and
	// sim_paper (m=2,n=4 at 1 KB) and live_bulk (m=2,n=4 at 256 KB).
	{
		c12, err := erasure.New(1, 2)
		check(err)
		c24, err := erasure.New(2, 4)
		check(err)
		if failed != nil {
			return failed
		}
		small, big := fill(1<<10), fill(256<<10)
		us("erasure.split_1k_m1n2.us", func() { _, err := c12.Split(small); check(err) })
		us("erasure.split_1k_m2n4.us", func() { _, err := c24.Split(small); check(err) })
		ns, allocs := timeOp(budget, func() { _, err := c24.Split(big); check(err) })
		res.layer["erasure.split_256k_m2n4.us"] = ns / 1e3
		res.layer["erasure.split_256k_m2n4.allocs"] = allocs
		segs, err := c24.Split(big)
		check(err)
		if failed != nil {
			return failed
		}
		parity := segs[2:] // no data shard: the decode matrix does real work
		us("erasure.reconstruct_256k_m2n4.us", func() { _, err := c24.Reconstruct(parity); check(err) })
	}

	// onioncrypt (ECIES, the live suite)
	suite := onioncrypt.ECIES{}
	{
		kp, err := suite.GenerateKeyPair(rand.Reader)
		check(err)
		key, err := suite.NewSymKey(rand.Reader)
		check(err)
		sealed, err := suite.Seal(rand.Reader, kp.Public, key)
		check(err)
		if failed != nil {
			return failed
		}
		us("onioncrypt.seal.us", func() { _, err := suite.Seal(rand.Reader, kp.Public, key); check(err) })
		us("onioncrypt.open.us", func() { _, err := suite.Open(kp.Private, sealed); check(err) })
		for _, sz := range []struct {
			name string
			n    int
		}{{"1k", 1 << 10}, {"128k", 128 << 10}} {
			pt := fill(sz.n)
			ct, err := suite.SymSeal(rand.Reader, key, pt)
			check(err)
			ns, allocs := timeOp(budget, func() { _, err := suite.SymSeal(rand.Reader, key, pt); check(err) })
			res.layer["onioncrypt.sym_seal_"+sz.name+".us"] = ns / 1e3
			if sz.name == "1k" {
				res.layer["onioncrypt.sym_seal_1k.allocs"] = allocs
			}
			us("onioncrypt.sym_open_"+sz.name+".us", func() { _, err := suite.SymOpen(key, ct); check(err) })
		}
	}

	// onion codec: two relays, as on every live workload.
	{
		dir, err := onion.NewDirectory(suite, rand.Reader, 4)
		check(err)
		if failed != nil {
			return failed
		}
		relays := []netsim.NodeID{2, 3}
		keys := make([][]byte, len(relays))
		for i := range keys {
			keys[i], err = suite.NewSymKey(rand.Reader)
			check(err)
		}
		respKey, err := suite.NewSymKey(rand.Reader)
		check(err)
		sealedResp, err := suite.Seal(rand.Reader, dir.Public(1), respKey)
		check(err)
		built, err := onion.BuildConstructOnion(suite, rand.Reader, dir, relays, 1, keys)
		check(err)
		if failed != nil {
			return failed
		}
		us("onion.build_construct_l2.us", func() {
			_, err := onion.BuildConstructOnion(suite, rand.Reader, dir, relays, 1, keys)
			check(err)
		})
		us("onion.parse_construct_layer.us", func() {
			_, err := onion.ParseConstructLayer(suite, dir.Private(relays[0]), built)
			check(err)
		})
		small, big := fill(1<<10), fill(128<<10)
		us("onion.build_payload_l2_1k.us", func() {
			_, err := onion.BuildPayloadOnion(suite, rand.Reader, keys, 1, respKey, sealedResp, small)
			check(err)
		})
		us("onion.build_payload_l2_128k.us", func() {
			_, err := onion.BuildPayloadOnion(suite, rand.Reader, keys, 1, respKey, sealedResp, big)
			check(err)
		})
	}

	// wire: a coded segment's header and body, encoded and decoded.
	{
		data := fill(512)
		ns, _ := timeOp(budget, func() {
			w := wire.NewWriter()
			w.Byte(1)
			w.Uint64(42)
			w.Int32(1)
			w.Int32(4)
			w.Int32(2)
			w.Bytes32(data)
			r := wire.NewReader(w.Bytes())
			r.Byte()
			r.Uint64()
			r.Int32()
			r.Int32()
			r.Int32()
			r.Bytes32()
			check(r.Done())
		})
		res.layer["wire.segment_roundtrip.ns"] = ns
	}

	check(microTCP(budget, res))
	check(microLivenet(budget, res))
	microSim(budget, res, check)
	return failed
}

// microTCP times what livenet pays per frame below its own code: dial a
// loopback listener, write one length-prefixed frame, close; the
// listener accepts, reads the frame and closes. It is the harness's own
// socket code, a reference for the decomposition, not a livenet call.
func microTCP(budget time.Duration, res *result) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	got := make(chan error)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var hdr [4]byte
			_, err = io.ReadFull(c, hdr[:])
			if err == nil {
				_, err = io.ReadFull(c, make([]byte, binary.BigEndian.Uint32(hdr[:])))
			}
			c.Close()
			got <- err
		}
	}()
	defer func() {
		ln.Close()
		<-stopped
	}()
	var failed error
	for _, sz := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"128k", 128 << 10}} {
		frame := make([]byte, 4+sz.n)
		binary.BigEndian.PutUint32(frame, uint32(sz.n))
		ns, _ := timeOp(budget, func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				failed = err
				return
			}
			if _, err := c.Write(frame); err != nil {
				failed = err
			}
			c.Close()
			if err := <-got; err != nil {
				failed = err
			}
		})
		res.layer["host.tcp_frame_"+sz.name+".us"] = ns / 1e3
		if failed != nil {
			return fmt.Errorf("tcp frame microbench: %w", failed)
		}
	}
	return nil
}

// microLivenet times one path of a four-node fleet: construction, and a
// Path.Send -> ReplyHandle.Reply -> Path.Replies round trip with no
// session and no coding.
func microLivenet(budget time.Duration, res *result) error {
	f, err := startFleet(4, func(h livenet.ReplyHandle, data []byte) {
		// Echo a short reply, as a segment ack is.
		_ = h.Reply(data[:8]) // an error shows as a missing reply below
	})
	if err != nil {
		return err
	}
	defer f.close()
	relays := []netsim.NodeID{2, 3}
	var failed error
	ns, _ := timeOp(budget, func() {
		p, err := f.nodes[initiatorID].Construct(relays, responderID)
		if err != nil {
			failed = err
			return
		}
		p.Teardown()
	})
	if failed != nil {
		return fmt.Errorf("construct microbench: %w", failed)
	}
	res.layer["livenet.construct_l2.us"] = ns / 1e3

	p, err := f.nodes[initiatorID].Construct(relays, responderID)
	if err != nil {
		return err
	}
	defer p.Teardown()
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for _, sz := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"128k", 128 << 10}} {
		data := fill(sz.n)
		ns, _ := timeOp(budget, func() {
			if err := p.Send(data); err != nil {
				failed = err
				return
			}
			timeout.Reset(awaitLimit)
			select {
			case <-p.Replies():
			case <-timeout.C:
				failed = fmt.Errorf("no reply within %v", awaitLimit)
			}
		})
		if failed != nil {
			return fmt.Errorf("path round trip microbench: %w", failed)
		}
		res.layer["livenet.path_roundtrip_"+sz.name+".us"] = ns / 1e3
	}
	return nil
}

// microSim times the simulator's layers below core.
func microSim(budget time.Duration, res *result, check func(error)) {
	// Engine: schedule + run in batches, netsim's steady-state pattern.
	{
		e := sim.NewEngine(1)
		fn := func() {}
		i := 0
		ns, allocs := timeOp(budget, func() {
			e.Schedule(sim.Time(i%1000)*sim.Millisecond, fn)
			if i%1024 == 1023 {
				e.RunAll()
			}
			i++
		})
		res.layer["sim.engine.events_per_s"] = 1e9 / ns
		res.layer["sim.engine.schedule.allocs"] = allocs
	}
	// netsim: one message sent and delivered between two nodes.
	{
		e := sim.NewEngine(1)
		topo, err := topology.Uniform(2, 100*sim.Millisecond)
		check(err)
		if err != nil {
			return
		}
		nw := netsim.New(e, topo)
		nw.SetHandler(1, netsim.HandlerFunc(func(netsim.NodeID, netsim.Message) {}))
		msg := netsim.Message{Size: 1024}
		ns, _ := timeOp(budget, func() {
			nw.Send(0, 1, msg)
			e.RunAll()
		})
		res.layer["netsim.send_deliver.ns"] = ns
	}
	// Sharded engine: the churned message-plane world of
	// internal/perfbench, a shorter horizon, at K = 1 and 2.
	for _, k := range []int{1, 2} {
		horizon := 30 * sim.Second
		if budget < 10*time.Millisecond {
			horizon = sim.Second
		}
		w, err := shardworld.New(shardworld.Config{
			Nodes:           512,
			Shards:          k,
			Seed:            99,
			Lifetime:        churn.DefaultLifetime(),
			TrafficInterval: 500 * sim.Millisecond,
		})
		check(err)
		if err != nil {
			return
		}
		t0 := time.Now()
		w.Run(horizon)
		res.layer[fmt.Sprintf("sim.shard.k%d.events_per_s", k)] = float64(w.Cluster.Executed()) / time.Since(t0).Seconds()
	}
	// mixchoice: SimEra's biased pick of 4 paths x 3 relays among 1023
	// candidates, as every establishment and repair of sim_paper does.
	{
		rng := mrand.New(mrand.NewSource(7))
		cands := make([]membership.Candidate, 1023)
		for i := range cands {
			cands[i] = membership.Candidate{
				ID: netsim.NodeID(i + 1), Q: rng.Float64(),
				AliveFor: sim.Time(rng.Int63n(int64(sim.Hour))),
			}
		}
		ns, _ := timeOp(budget, func() {
			_, err := mixchoice.SelectPaths(rng, mixchoice.Biased, cands, 4, 3, 1, 2)
			check(err)
		})
		res.layer["mixchoice.select_paths_k4l3_n1024.us"] = ns / 1e3
	}
}

// decompose compares the workload's latency with the sum of its layers'
// microbench costs on the blocking path; the remainder is what no
// measured layer explains (goroutine hand-offs, locks, bookkeeping).
func decompose(res *result) {
	l := res.layer
	latencyUS := res.e2e["latency_p50_ms"] * 1e3
	// One reverse hop carries a short ack: a frame plus one symmetric
	// seal at the relay (or responder) and one open at the initiator.
	reverseHop := l["host.tcp_frame_1k.us"] + l["onioncrypt.sym_seal_1k.us"] + l["onioncrypt.sym_open_1k.us"]
	forwardHop := func(size string) float64 {
		return l["host.tcp_frame_"+size+".us"] + l["onioncrypt.sym_open_"+size+".us"]
	}
	var explained, path float64
	switch res.workload {
	case "live_small":
		// m = 1: the first path's ack resolves the message. Split, one
		// payload onion, three forward hops, the responder's asymmetric
		// open, three reverse hops.
		explained = l["erasure.split_1k_m1n2.us"] + l["onion.build_payload_l2_1k.us"] +
			3*forwardHop("1k") + l["onioncrypt.open.us"] + 3*reverseHop
		path = l["livenet.path_roundtrip_1k.us"]
	case "live_bulk", "live_repair":
		// m = 2: Send serialises the paths, so the second ack waits for
		// the first path's onion and first-hop write, then its own
		// onion and full round trip.
		size, split := "128k", l["erasure.split_256k_m2n4.us"]
		if res.workload == "live_repair" {
			size, split = "1k", l["erasure.split_1k_m2n4.us"]
		}
		explained = split + 2*l["onion.build_payload_l2_"+size+".us"] + l["host.tcp_frame_"+size+".us"] +
			3*forwardHop(size) + l["onioncrypt.open.us"] + 3*reverseHop
		path = l["livenet.path_roundtrip_"+size+".us"]
	case "sim_paper":
		// No wall-clock latency to decompose: compare the wall cost of a
		// message with its events at the bare engine's cost per event
		// plus the SendMessage call.
		latencyUS = safeDiv(1e6, res.e2e["msgs_per_s"])
		explained = l["core.events_per_msg"]*safeDiv(1e6, l["sim.engine.events_per_s"]) + l["core.session.send_message_us"]
	}
	l["decomp.explained_share"] = safeDiv(explained, latencyUS)
	l["decomp.path_roundtrip_share"] = safeDiv(path, latencyUS)
}
