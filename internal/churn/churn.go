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
	"math/rand"

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
	rng := d.net.Engine().RNG()
	for i := 0; i < d.net.Size(); i++ {
		id := netsim.NodeID(i)
		if d.pinned[id] {
			continue
		}
		d.scheduleLeave(id, rng)
	}
	return nil
}

// Transitions returns the number of up/down transitions applied so far.
func (d *Driver) Transitions() uint64 { return d.transitions }

func (d *Driver) scheduleLeave(id netsim.NodeID, rng *rand.Rand) {
	session := sim.FromSeconds(d.lifetime.Sample(rng))
	d.net.Engine().Schedule(session, func() {
		d.transitions++
		d.net.SetUp(id, false)
		d.scheduleJoin(id, rng)
	})
}

func (d *Driver) scheduleJoin(id netsim.NodeID, rng *rand.Rand) {
	down := sim.FromSeconds(d.lifetime.Sample(rng))
	d.net.Engine().Schedule(down, func() {
		d.transitions++
		d.net.SetUp(id, true)
		d.scheduleLeave(id, rng)
	})
}
