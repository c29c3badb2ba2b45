package membership

import (
	"resilientmix/internal/netsim"
	"resilientmix/internal/predictor"
	"resilientmix/internal/sim"
)

// Oracle is a Provider with perfectly fresh information, modelling the
// paper's OneHop layer, whose whole point is that "nodes maintain
// accurate and complete membership information in the presence of churn"
// (§6.1). It watches churn transitions directly.
//
// Semantics match what a perfectly synchronized cache would hold:
//
//   - An up node has Δt_alive = now − joinTime and Δt_since = 0, so its
//     predictor is q = 1; biased choice breaks the tie by Δt_alive,
//     which is exactly the heavy-tail ranking (older ⇒ safer).
//   - A down node keeps the Δt_alive of its last completed session, and
//     its Δt_since grows from the moment it left, so q decays toward 0 —
//     the cache never *filters* dead nodes (random mix choice in current
//     protocols does not know liveness; that is the paper's baseline).
type Oracle struct {
	eng   *sim.Engine
	nodes []oracleEntry
}

type oracleEntry struct {
	up        bool
	joinTime  sim.Time // start of current session (valid if up)
	aliveFor  sim.Time // length of last completed session (valid if !up)
	leftTime  sim.Time // when the node last went down (valid if !up)
	everAlive bool
}

// NewOracle creates an oracle over the network and subscribes to its
// churn transitions. All nodes are assumed up at creation time.
func NewOracle(net *netsim.Network) *Oracle {
	o := &Oracle{eng: net.Engine(), nodes: make([]oracleEntry, net.Size())}
	now := o.eng.Now()
	for i := range o.nodes {
		o.nodes[i] = oracleEntry{up: net.IsUp(netsim.NodeID(i)), joinTime: now, everAlive: true}
	}
	net.AddStateListener(o.onTransition)
	return o
}

func (o *Oracle) onTransition(id netsim.NodeID, up bool) {
	now := o.eng.Now()
	e := &o.nodes[id]
	if up {
		e.up = true
		e.joinTime = now
		e.everAlive = true
	} else {
		e.aliveFor = now - e.joinTime
		e.leftTime = now
		e.up = false
	}
}

// Info returns the liveness info the oracle would report for a node.
func (o *Oracle) Info(id netsim.NodeID) predictor.Info {
	now := o.eng.Now()
	e := o.nodes[id]
	if e.up {
		return predictor.Info{AliveFor: now - e.joinTime, Since: 0, LastHeard: now}
	}
	return predictor.Info{AliveFor: e.aliveFor, Since: now - e.leftTime, LastHeard: now}
}

// Q implements QProvider.
func (o *Oracle) Q(id netsim.NodeID) float64 {
	return predictor.Q(o.Info(id), o.eng.Now())
}

// AppendCandidates implements Provider.
func (o *Oracle) AppendCandidates(out []Candidate, self netsim.NodeID) []Candidate {
	now := o.eng.Now()
	for i := range o.nodes {
		id := netsim.NodeID(i)
		if id == self {
			continue
		}
		info := o.Info(id)
		out = append(out, Candidate{ID: id, Q: predictor.Q(info, now), AliveFor: info.AliveFor})
	}
	return out
}
