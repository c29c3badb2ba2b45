package main

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// payloads derives every message of a run from (seed, counter): a
// seed-derived base of the workload's size whose first 16 bytes are
// overwritten with the counter and a seed-keyed tag. The verifier
// rebuilds the expected bytes from the counter alone, so the comparison
// is byte for byte without keeping a copy of every message sent.
type payloads struct {
	seed uint64
	base []byte
}

const stampLen = 16

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newPayloads(seed int64, size int) *payloads {
	if size < stampLen {
		size = stampLen
	}
	p := &payloads{seed: uint64(seed), base: make([]byte, size)}
	x := splitmix(uint64(seed))
	for i := 0; i+8 <= size; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(p.base[i:], x)
	}
	return p
}

// stamp writes message ctr's header into buf (len(buf) == len(base)).
func (p *payloads) stamp(buf []byte, ctr uint64) {
	binary.BigEndian.PutUint64(buf, ctr)
	binary.BigEndian.PutUint64(buf[8:], splitmix(p.seed^splitmix(ctr)))
}

// verify reports the counter carried by data and whether data is byte
// for byte the message that counter denotes.
func (p *payloads) verify(data []byte) (uint64, bool) {
	if len(data) != len(p.base) {
		return 0, false
	}
	ctr := binary.BigEndian.Uint64(data)
	var hdr [stampLen]byte
	p.stamp(hdr[:], ctr)
	return ctr, bytes.Equal(data[:stampLen], hdr[:]) && bytes.Equal(data[stampLen:], p.base[stampLen:])
}

// fleet is an in-process livenet deployment on loopback: node 0 is the
// initiator, node 1 the responder, the rest relays. Everything goes
// through livenet's public API.
type fleet struct {
	nodes  []*livenet.Node
	cfgs   []livenet.Config
	addrs  []string
	roster *livenet.Roster
	// retired holds the counters of crashed nodes: a restarted node has
	// a fresh registry, and fleet-wide sums must not lose the old one.
	retired map[string]uint64
}

// verifier is the responder side of a workload: a LiveCollector whose
// callback compares every reconstructed payload byte for byte.
type verifier struct {
	pay       *payloads
	delivered chan delivery // verified deliveries, in arrival order
	corrupt   atomic.Int64  // deliveries whose payload did not match
}

type delivery struct {
	ctr uint64
	at  time.Time
}

func newVerifier(pay *payloads) *verifier {
	// The buffer holds every delivery that can pile up while the one
	// awaiter goroutine is blocked on a slow message (open loop: 100
	// msg/s for up to awaitLimit), so the responder never blocks on the
	// harness and no verdict is dropped.
	return &verifier{pay: pay, delivered: make(chan delivery, 4096)}
}

// onData is the responder's livenet.DataFunc. It runs on the responder's
// handler goroutines.
func (v *verifier) onData() livenet.DataFunc {
	return livenet.NewLiveCollector(func(_ uint64, data []byte) {
		at := time.Now()
		ctr, ok := v.pay.verify(data)
		if !ok {
			v.corrupt.Add(1)
			return
		}
		select {
		case v.delivered <- delivery{ctr: ctr, at: at}:
		default: // full only if the generator died; the message fails
		}
	}).Handle
}

const (
	initiatorID = 0
	responderID = 1
	firstRelay  = 2
)

// startFleet starts n nodes on 127.0.0.1:0 with fresh ECIES keys (keys
// are not workload inputs: they never influence sizes or counts).
func startFleet(n int, onData livenet.DataFunc) (*fleet, error) {
	suite := onioncrypt.ECIES{}
	f := &fleet{retired: make(map[string]uint64)}
	peers := make([]livenet.Peer, n)
	keys := make([]onioncrypt.KeyPair, n)
	for i := range peers {
		kp, err := suite.GenerateKeyPair(rand.Reader)
		if err != nil {
			return nil, err
		}
		keys[i] = kp
		peers[i] = livenet.Peer{ID: netsim.NodeID(i), Addr: "pending", Public: kp.Public}
	}
	prov, err := livenet.NewRoster(peers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cfg := livenet.Config{
			ID:      netsim.NodeID(i),
			Roster:  prov,
			Private: keys[i].Private,
			Suite:   suite,
		}
		if i == responderID {
			cfg.OnData = onData
		}
		node, err := livenet.Start("127.0.0.1:0", cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		f.cfgs = append(f.cfgs, cfg)
		f.addrs = append(f.addrs, node.Addr())
		peers[i].Addr = node.Addr()
	}
	f.roster, err = livenet.NewRoster(peers)
	if err != nil {
		f.close()
		return nil, err
	}
	for i, node := range f.nodes {
		node.SetRoster(f.roster)
		f.cfgs[i].Roster = f.roster
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// relayLists lays relays out as k disjoint lists of l, in id order.
func relayLists(k, l int) [][]netsim.NodeID {
	lists := make([][]netsim.NodeID, k)
	id := firstRelay
	for i := range lists {
		for j := 0; j < l; j++ {
			lists[i] = append(lists[i], netsim.NodeID(id))
			id++
		}
	}
	return lists
}

// crash closes node id; restart starts it again on the same address with
// the same key, with no relay state — what a process restart loses.
func (f *fleet) crash(id int) {
	n := f.nodes[id]
	n.Close()
	for name, v := range n.Metrics().CountersWithPrefix("") {
		f.retired[name] += v
	}
	f.nodes[id] = nil
}

func (f *fleet) restart(id int) error {
	// The port came from the ephemeral range, so while the node was down
	// an outbound connection may hold it for a moment: retry briefly.
	var err error
	for try := 0; try < 10; try++ {
		var node *livenet.Node
		if node, err = livenet.Start(f.addrs[id], f.cfgs[id]); err == nil {
			f.nodes[id] = node
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("restart node %d on %s: %w", id, f.addrs[id], err)
}

// counterSum adds one registry counter over all nodes, crashed
// incarnations included.
func (f *fleet) counterSum(name string) uint64 {
	sum := f.retired[name]
	for _, n := range f.nodes {
		if n != nil {
			sum += n.Metrics().Counter(name).Value()
		}
	}
	return sum
}
