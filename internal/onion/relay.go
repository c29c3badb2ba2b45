package onion

import (
	"resilientmix/internal/bufpool"
	"resilientmix/internal/metrics"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/sim"
)

// DefaultStateTTL is how long a relay keeps an idle path state before
// reclaiming it (§4.3). Payload traffic refreshes the TTL.
const DefaultStateTTL = 10 * sim.Minute

// Relay is one node's mix functionality in the simulator: it feeds the
// node's relay Table from the simulated network and puts what the table
// answers back on it. All state is lost when the node fails, which is
// exactly the fragility the paper studies.
type Relay struct {
	id  netsim.NodeID
	net *netsim.Network
	eng *sim.Engine
	tab *Table
}

// NewRelay creates the relay for a node, registers its churn listener
// (state is wiped when the node goes down) and starts the TTL sweeper.
// Its path states come from the directory's spares, and go back there.
func NewRelay(net *netsim.Network, id netsim.NodeID, dir *Directory, ttl sim.Time) *Relay {
	if ttl <= 0 {
		ttl = DefaultStateTTL
	}
	eng := net.Engine()
	env := simEnv(eng.RNG(), dir.Suite(), &dir.spares)
	r := &Relay{id: id, net: net, eng: eng, tab: NewTable(env, dir.Private(id), int64(ttl))}
	net.AddNodeListener(id, func(_ netsim.NodeID, up bool) {
		if !up {
			r.tab.Wipe()
		}
	})
	eng.Every(ttl, ttl, func() { r.tab.Sweep(int64(eng.Now())) })
	return r
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() RelayStats { return r.tab.Stats() }

// States returns the number of live path states.
func (r *Relay) States() int {
	forward, _ := r.tab.States()
	return forward
}

// dropReasons maps the table's verdicts to trace reasons.
var dropReasons = [...]obs.Reason{DropNoSID: obs.ReasonNoState, DropBad: obs.ReasonBadLayer}

// apply transmits a step's sends, each data-plane one carrying tag
// advanced one hop, and records a tagged message the table consumed:
// without that event its causal chain would end at a MsgDelivered with
// no explanation. buf, the pooled buffer the input lay in, goes on with
// the first send when that send's body or construction onion still
// lies in it — a layer opened or sealed in place, an inner onion — and
// back to the pool otherwise: a drop, an ack, or a reverse body the
// table moved.
func (r *Relay) apply(st *Step, buf *[]byte, flow *metrics.Flow, tag obs.Tag, size int) {
	if st.Drop != DropNone {
		emitRelayDropped(r.net, r.id, tag, size, dropReasons[st.Drop])
	}
	if buf != nil && (st.N == 0 || OffsetIn(*buf, st.Out[0].Body) < 0 && OffsetIn(*buf, st.Out[0].Onion) < 0) {
		bufpool.Release(buf)
		buf = nil
	}
	for i := 0; i < st.N; i++ {
		transmit(r.net, r.id, &st.Out[i], buf, flow, tag.Next())
		buf = nil // only the first send carries the input's body
	}
}

// handle feeds one packet to the table and applies what it answers. The
// tag and size matter to the data-plane kinds only; the others travel
// untagged.
func (r *Relay) handle(from netsim.NodeID, p *packet, size int) {
	now := int64(r.eng.Now())
	var st Step
	switch p.Kind {
	case KindConstruct:
		st = r.tab.Construct(now, from, p.SID, p.Onion)
	case KindConstructData:
		st = r.tab.ConstructData(now, from, p.SID, p.Onion, p.Body)
	case KindAck:
		st = r.tab.Ack(now, p.SID)
	case KindData:
		st = r.tab.Data(now, p.SID, p.Body)
	case KindReverse:
		st = r.tab.Reverse(now, p.SID, p.Body, p.Room)
	}
	r.apply(&st, p.Buf, p.Flow, p.Trace, size)
}
