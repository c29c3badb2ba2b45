// Package churn drives node membership dynamics: "each node alternately
// leaves and rejoins the network. The interval between successive events
// for each node follows a Pareto distribution with median time of 1 hour"
// (paper §6.1). Both session (up) and downtime intervals are drawn from
// the configured lifetime distribution, and individual nodes can be
// pinned up — the paper's durability experiment keeps the initiator and
// responder alive throughout.
//
// The package also synthesizes the "measured Gnutella" session trace
// used by Figure 1 (DESIGN.md, substitution 3).
package churn

import (
	"fmt"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
	"resilientmix/internal/stats"
)

// DefaultLifetime is the paper's churn model: Pareto with alpha = 1,
// beta = 1800 s, i.e. median session time one hour.
func DefaultLifetime() stats.Pareto {
	return stats.Pareto{Alpha: 1, Beta: 1800}
}

// Driver schedules alternating up/down transitions for every node of a
// network.
type Driver struct {
	net      *netsim.Network
	lifetime stats.Dist
	pinned   map[netsim.NodeID]bool
	started  bool
	// leave and join are the transitions as typed engine events, with
	// the node id as the argument: registered once, at Start, so a
	// transition costs no closure.
	leave, join sim.Func

	transitions uint64
}

// Option configures a Driver.
type Option func(*Driver)

// Pin keeps the given nodes up for the whole simulation.
func Pin(ids ...netsim.NodeID) Option {
	return func(dr *Driver) {
		for _, id := range ids {
			dr.pinned[id] = true
		}
	}
}

// NewDriver creates a churn driver for the network using the given
// lifetime distribution.
func NewDriver(net *netsim.Network, lifetime stats.Dist, opts ...Option) (*Driver, error) {
	if lifetime == nil {
		return nil, fmt.Errorf("churn: lifetime distribution is required")
	}
	d := &Driver{
		net:      net,
		lifetime: lifetime,
		pinned:   make(map[netsim.NodeID]bool),
	}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// Start begins churning: every unpinned node is up now and will leave
// after a freshly sampled session time. Start may be called once.
func (d *Driver) Start() error {
	if d.started {
		return fmt.Errorf("churn: driver already started")
	}
	d.started = true
	eng := d.net.Engine()
	d.leave = eng.Register(func(id uint64) { d.transition(netsim.NodeID(id), false) })
	d.join = eng.Register(func(id uint64) { d.transition(netsim.NodeID(id), true) })
	for i := 0; i < d.net.Size(); i++ {
		id := netsim.NodeID(i)
		if d.pinned[id] {
			continue
		}
		d.schedule(id, d.leave)
	}
	return nil
}

// Transitions returns the number of up/down transitions applied so far.
func (d *Driver) Transitions() uint64 { return d.transitions }

// transition takes node id up or down and schedules its next
// transition, the other way.
func (d *Driver) transition(id netsim.NodeID, up bool) {
	d.transitions++
	d.net.SetUp(id, up)
	next := d.leave
	if !up {
		next = d.join
	}
	d.schedule(id, next)
}

// schedule draws how long node id stays as it is and schedules the
// transition f then.
func (d *Driver) schedule(id netsim.NodeID, f sim.Func) {
	eng := d.net.Engine()
	eng.ScheduleTyped(sim.FromSeconds(d.lifetime.Sample(eng.RNG())), f, uint64(id))
}
