// Package sessiontest is the session machine's third driver, for
// tests: one initiator session, its responder and the relays between
// them on the simulator's engine and network (sim, netsim — virtual
// clock, timers, delivery rules, and so internal/faultinject's ApplySim)
// but with no onion layer, membership or world under it. What it adds is
// the least a fleet must do for §4.5 to be observable: a path is the
// state its relays hold, and a relay that goes down forgets it. §4.5
// scenarios that take seconds of wall clock on sockets run here in
// microseconds, deterministically, and the simulator driver is checked
// against it.
package sessiontest

import (
	"resilientmix/internal/erasure"
	"resilientmix/internal/netsim"
	"resilientmix/internal/session"
	"resilientmix/internal/sim"
	"resilientmix/internal/topology"
)

// Options are the driver-side cadences and timeouts.
type Options struct {
	// ConstructTimeout bounds the wait for a construction ack.
	ConstructTimeout sim.Time
	// ProbeInterval, when positive, enables repair with this probe tick.
	ProbeInterval sim.Time
	// CoverInterval, when positive, emits (or sheds) cover at this tick.
	CoverInterval sim.Time
}

// Counts is what the driver saw the machine and the responder do.
type Counts struct {
	MessagesSent, Rejected     int
	SegmentsSent               int // data segments that left the initiator
	SegmentsAcked, ProbeAcks   int
	Probes                     int
	Broken                     [session.Predicted + 1]int // by session.Reason
	Builds, Repaired, Failed   int
	Retransmits                int
	Delivered, Lost            int // verdicts
	Reconstructed              int // messages rebuilt at the responder
	CoverSent, CoverShed       int
	MaxInflight, LateDeadlines int
	// EarlyForgets counts Forgets of a message with no verdict yet while
	// the session stood.
	EarlyForgets int
}

// Driver runs one session machine on its own engine and network: node
// Self is the initiator, Responder reassembles and acknowledges. The
// machine's clock is the engine's, in microseconds.
type Driver struct {
	Eng       *sim.Engine
	Net       *netsim.Network
	M         *session.Machine
	Self      netsim.NodeID
	Responder netsim.NodeID
	// Choose picks the relays of a replacement path for slot, avoiding
	// exclude: the test's script.
	Choose func(slot int, exclude []netsim.NodeID) ([]netsim.NodeID, bool)
	Counts Counts
	// Verdicts counts, per message, how often it resolved as delivered
	// [0] and as lost [1]; Rebuilt how often the responder rebuilt it;
	// Forgotten how often the machine forgot its record.
	Verdicts  map[uint64][2]int
	Rebuilt   map[uint64]int
	Forgotten map[uint64]int

	opts    Options
	code    *erasure.Code
	paths   []*path
	epoch   []int // bumped when a node goes down: path state of older epochs is gone
	asm     *session.Reassembler[struct{}]
	nextMID uint64
	ticks   []sim.Timer
	torn    bool
}

// path is one onion path's state as the fleet holds it.
type path struct {
	relays []netsim.NodeID
	epochs []int // the epoch each relay installed the path's state in
}

// NewDriver creates a fleet of nodes up nodes whose links all have
// one-way latency hop, and a session of cfg from self to responder on
// it. seed drives injected drop rates and the cover path pick.
func NewDriver(nodes int, hop sim.Time, seed int64, self, responder netsim.NodeID, cfg session.Config, opts Options) *Driver {
	code, err := erasure.New(cfg.M, cfg.N)
	if err != nil {
		panic(err)
	}
	topo, err := topology.Uniform(nodes, 2*hop)
	if err != nil {
		panic(err)
	}
	eng := sim.NewEngine(seed)
	cfg.Responder = responder
	d := &Driver{
		Eng: eng, Net: netsim.New(eng, topo), M: session.New(cfg), Self: self, Responder: responder,
		Verdicts: make(map[uint64][2]int), Rebuilt: make(map[uint64]int), Forgotten: make(map[uint64]int),
		opts: opts, code: code,
		paths: make([]*path, cfg.K),
		epoch: make([]int, nodes),
		asm:   session.NewReassembler[struct{}](1 << 62),
	}
	// A message is what happens when it arrives.
	arrive := netsim.HandlerFunc(func(_ netsim.NodeID, msg netsim.Message) { msg.Payload.(func())() })
	for id := 0; id < nodes; id++ {
		d.Net.SetHandler(netsim.NodeID(id), arrive)
	}
	d.Net.AddStateListener(func(id netsim.NodeID, up bool) {
		if !up {
			d.epoch[id]++
		}
	})
	if opts.ProbeInterval > 0 {
		d.M.EnableRepair()
	}
	return d
}

// Establish launches the construction of every slot's initial path;
// run the engine until they have concluded, then call Start.
func (d *Driver) Establish(lists [][]netsim.NodeID) {
	for i, relays := range lists {
		i, relays := i, relays
		d.construct(relays, nil, func(p *path) {
			if p != nil {
				d.paths[i] = p
				d.M.PathUp(i, relays)
			} else {
				d.M.PathDown(i, relays)
			}
		})
	}
}

// Start asks for a replacement of every slot whose first construction
// failed and starts the probe and cover ticks, first due one interval
// from now.
func (d *Driver) Start() {
	if d.opts.ProbeInterval > 0 {
		d.run(d.M.Repairs(nil))
		d.ticks = append(d.ticks, d.Eng.Every(d.opts.ProbeInterval, d.opts.ProbeInterval, func() {
			d.run(d.M.Repairs(nil))
			d.nextMID++
			d.run(d.M.ProbeRound(nil, int64(d.Eng.Now()), d.nextMID))
		}))
	}
	if d.opts.CoverInterval > 0 {
		d.ticks = append(d.ticks, d.Eng.Every(d.opts.CoverInterval, d.opts.CoverInterval, func() {
			d.run(d.M.CoverTick(nil, d.Eng.RNG().Uint64()))
		}))
	}
}

// Send starts one message.
func (d *Driver) Send(data []byte) (uint64, error) {
	segs, err := d.code.Split(data)
	if err != nil {
		return 0, err
	}
	d.nextMID++
	mid := d.nextMID
	outs, err := d.M.Send(nil, int64(d.Eng.Now()), mid, d.Responder, segs, nil)
	if err != nil {
		d.Counts.Rejected++
		return 0, err
	}
	d.Counts.MessagesSent++
	d.run(outs)
	return mid, nil
}

// Teardown ends the session: the ticks stop, and the deadlines still
// scheduled fire into a machine that ignores them.
func (d *Driver) Teardown() {
	d.torn = true
	d.M.Teardown()
	for _, t := range d.ticks {
		t.Cancel()
	}
}

func (d *Driver) run(outs []session.Output) {
	if n := d.M.Inflight(); n > d.Counts.MaxInflight {
		d.Counts.MaxInflight = n
	}
	for _, o := range outs {
		switch o.Kind {
		case session.Transmit:
			d.Counts.SegmentsSent++
			d.data(d.paths[o.Slot], d.M.Payload(o))
		case session.Probe:
			d.Counts.Probes++
			d.data(d.paths[o.Slot], d.M.Payload(o))
		case session.Cover:
			d.Counts.CoverSent++
			d.data(d.paths[o.Slot], session.EncodeCover(make([]byte, 32)))
		case session.CoverShed:
			d.Counts.CoverShed++
		case session.Arm:
			mid := o.MID
			d.Eng.ScheduleAt(sim.Time(o.At), func() {
				if d.torn {
					d.Counts.LateDeadlines++
				}
				d.run(d.M.Deadline(nil, int64(d.Eng.Now()), mid))
			})
		case session.Build:
			d.build(o)
		case session.Broken:
			d.Counts.Broken[o.Reason]++
		case session.Repaired:
			d.Counts.Repaired++
		case session.Acked:
			if o.OfProbe {
				d.Counts.ProbeAcks++
			} else {
				d.Counts.SegmentsAcked++
			}
		case session.Retransmit:
			d.Counts.Retransmits++
		case session.Resolved:
			v := d.Verdicts[o.MID]
			if o.Delivered {
				d.Counts.Delivered++
				v[0]++
			} else {
				d.Counts.Lost++
				v[1]++
			}
			d.Verdicts[o.MID] = v
		case session.Forget:
			d.Forgotten[o.MID]++
			if v := d.Verdicts[o.MID]; v[0]+v[1] == 0 && !d.torn {
				d.Counts.EarlyForgets++
			}
		}
	}
}

func (d *Driver) build(b session.Output) {
	relays, ok := d.Choose(b.Slot, b.Exclude)
	if !ok {
		d.M.Abandon(b)
		return
	}
	d.Counts.Builds++
	var first []byte
	if b.First {
		first = d.M.Payload(b)
		d.Counts.SegmentsSent++
	}
	d.construct(relays, first, func(p *path) {
		if p == nil {
			d.Counts.Failed++
			d.M.PathFailed(b.Slot)
			return
		}
		d.paths[b.Slot] = p
		d.run(d.M.PathBuilt(nil, b.Slot, relays))
	})
}

// construct passes a construction through relays, installing state at
// each; the terminal relay acknowledges back (and delivers first, when
// there is one, to the responder). done gets the path, or nil at the
// construction timeout.
func (d *Driver) construct(relays []netsim.NodeID, first []byte, done func(*path)) {
	p := &path{relays: relays, epochs: make([]int, len(relays))}
	concluded := false
	conclude := func(ok bool) {
		if concluded {
			return
		}
		concluded = true
		if ok {
			done(p)
		} else {
			done(nil)
		}
	}
	d.Eng.Schedule(d.opts.ConstructTimeout, func() { conclude(false) })
	out := append([]netsim.NodeID{d.Self}, relays...)
	d.walk(out, func(id netsim.NodeID) bool {
		d.install(p, id)
		return true
	}, func() {
		terminal := relays[len(relays)-1]
		d.install(p, terminal)
		if first != nil {
			d.send(terminal, d.Responder, func() { d.deliver(p, first) })
		}
		d.walk(reversed(out), d.held(p), func() { conclude(true) })
	})
}

// send puts one message on the link from → to; arrive runs at the far
// end unless the network loses it.
func (d *Driver) send(from, to netsim.NodeID, arrive func()) {
	d.Net.Send(from, to, netsim.Message{Payload: arrive})
}

// install records the epoch relay id holds p's state in.
func (d *Driver) install(p *path, id netsim.NodeID) {
	for j, r := range p.relays {
		if r == id {
			p.epochs[j] = d.epoch[id]
		}
	}
}

// held returns the walk check of p: relay id has not lost the state the
// construction installed.
func (d *Driver) held(p *path) func(id netsim.NodeID) bool {
	return func(id netsim.NodeID) bool {
		for j, r := range p.relays {
			if r == id {
				return p.epochs[j] == d.epoch[id]
			}
		}
		return true
	}
}

func reversed(nodes []netsim.NodeID) []netsim.NodeID {
	out := make([]netsim.NodeID, len(nodes))
	for i, n := range nodes {
		out[len(nodes)-1-i] = n
	}
	return out
}

// walk sends a message along nodes hop by hop. at runs on arrival at
// every node but the last and may consume the message; done runs at the
// last.
func (d *Driver) walk(nodes []netsim.NodeID, at func(id netsim.NodeID) bool, done func()) {
	var step func(i int)
	step = func(i int) {
		d.send(nodes[i], nodes[i+1], func() {
			switch {
			case i+2 == len(nodes):
				done()
			case at(nodes[i+1]):
				step(i + 1)
			}
		})
	}
	step(0)
}

// data sends an application payload down a path to the responder.
func (d *Driver) data(p *path, payload []byte) {
	nodes := append(append([]netsim.NodeID{d.Self}, p.relays...), d.Responder)
	d.walk(nodes, d.held(p), func() { d.deliver(p, payload) })
}

// deliver is the responder: it acknowledges probes and segments up the
// delivering path and rebuilds messages.
func (d *Driver) deliver(p *path, payload []byte) {
	msg, err := session.DecodeApp(payload)
	if err != nil {
		return
	}
	reply := func(a session.Ack) {
		nodes := reversed(append(append([]netsim.NodeID{d.Self}, p.relays...), d.Responder))
		d.walk(nodes, d.held(p), func() {
			d.run(d.M.Ack(nil, a.MID, a.Index))
		})
	}
	switch msg.Kind {
	case session.KindProbe:
		reply(msg.Ack)
	case session.KindSegment:
		v, _ := d.asm.Add(int64(d.Eng.Now()), msg.Seg, nil)
		if v == session.Rejected {
			return
		}
		reply(session.Ack{MID: msg.Seg.MID, Index: msg.Seg.Index})
		if v == session.Ready {
			if _, _, _, ok := d.asm.Reconstruct(msg.Seg.MID); ok {
				d.Counts.Reconstructed++
				d.Rebuilt[msg.Seg.MID]++
			}
		}
	}
}
