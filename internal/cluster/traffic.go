package cluster

import (
	"fmt"
	"time"

	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// planPaths derives the standard traffic layout for a generated
// cluster: node nodes-1 is the responder, the remaining nodes pair up
// into disjoint 2-relay paths — a leftover relay makes the last path
// three long, so every node carries traffic — and the replication
// factor is 2 when the path count is even (erasure coding with real
// redundancy), else 1.
func planPaths(nodes int) (relayLists [][]netsim.NodeID, responder netsim.NodeID, r int, err error) {
	if nodes < 4 {
		return nil, 0, 0, fmt.Errorf("cluster: traffic needs at least 4 nodes, got %d", nodes)
	}
	responder = netsim.NodeID(nodes - 1)
	for i := 0; i+1 < nodes-1; i += 2 {
		relayLists = append(relayLists, []netsim.NodeID{netsim.NodeID(i), netsim.NodeID(i + 1)})
	}
	if nodes%2 == 0 {
		last := len(relayLists) - 1
		relayLists[last] = append(relayLists[last], netsim.NodeID(nodes-2))
	}
	r = 1
	if len(relayLists)%2 == 0 {
		r = 2
	}
	return relayLists, responder, r, nil
}

// StartClient starts the in-process livenet client of a cluster under
// the manifest's reserved client identity — the one bootstrap behind
// every anonctl subcommand that drives traffic — and returns it with
// the cluster's standard traffic layout (see planPaths). tracer, when
// non-nil, receives the client's own wire events. The caller closes
// the node.
func StartClient(m Manifest, tracer obs.Tracer) (node *livenet.Node, relayLists [][]netsim.NodeID, responder netsim.NodeID, r int, err error) {
	if m.Client == nil {
		return nil, nil, 0, 0, fmt.Errorf("cluster: manifest reserves no client identity (generate with Client: true)")
	}
	roster, err := livenet.ReadRoster(m.Roster)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	priv, err := livenet.ReadKey(m.Client.Key)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	relayLists, responder, r, err = planPaths(len(m.Nodes))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	node, err = livenet.Start(m.Client.Addr, livenet.Config{
		ID:      netsim.NodeID(m.Client.ID),
		Roster:  roster,
		Private: priv,
		Tracer:  tracer,
	})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("cluster: starting client node: %w", err)
	}
	return node, relayLists, responder, r, nil
}

// TrafficResult reports an in-process traffic run against a cluster.
type TrafficResult struct {
	// Sent / SegmentsSent / SegmentsAcked are the client-side totals.
	Sent          int    `json:"sent"`
	SegmentsSent  uint64 `json:"segments_sent"`
	SegmentsAcked uint64 `json:"segments_acked"`
	// Paths is the number of live paths the session constructed.
	Paths int `json:"paths"`
	// Client is the in-process client's registry at the end of the run.
	// The client is no manifest node, so no poll sees it: a caller that
	// records the fleet puts this into the same store
	// (tsdb.SampleSnapshot, node=<client id>).
	Client obs.Snapshot `json:"-"`
	// Events is the client's own trace (SegmentSent and wire events),
	// mergeable with the nodes' /debug/trace captures.
	Events []obs.Event `json:"-"`
}

// RunTraffic starts the in-process client, opens an erasure-coded
// multipath session to the planned responder, sends msgs messages, and
// waits (up to ackWait) for the segment acks to drain back.
func RunTraffic(m Manifest, msgs int, payload []byte, ackWait time.Duration) (*TrafficResult, error) {
	// The client's own trace events are collected, to be merged with
	// the nodes' /debug/trace captures.
	events := obs.NewCollector()
	node, relayLists, responder, r, err := StartClient(m, events)
	if err != nil {
		return nil, err
	}
	defer node.Close()

	sess, err := node.NewLiveSessionOpts(relayLists, responder, livenet.SessionOptions{R: r, AckTimeout: 5 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("cluster: session construction: %w", err)
	}
	defer sess.Teardown()

	res := &TrafficResult{Paths: sess.AlivePaths()}
	for i := 0; i < msgs; i++ {
		if _, err := sess.Send(append([]byte(nil), payload...)); err != nil {
			return nil, fmt.Errorf("cluster: send %d: %w", i, err)
		}
		res.Sent++
	}

	// Wait for the acks to drain: every segment the collector acks made
	// it end to end.
	reg := node.Metrics()
	want := reg.Counter("session.segments_sent").Value()
	deadline := time.Now().Add(ackWait)
	for time.Now().Before(deadline) {
		if reg.Counter("session.segments_acked").Value() >= want {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	res.SegmentsSent = want
	res.SegmentsAcked = reg.Counter("session.segments_acked").Value()
	res.Events = events.Events()
	res.Client = reg.Snapshot()
	return res, nil
}
