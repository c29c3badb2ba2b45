package core

import (
	"fmt"
	"testing"

	"resilientmix/internal/faultinject"
	"resilientmix/internal/netsim"
	"resilientmix/internal/session"
	"resilientmix/internal/sessiontest"
	"resilientmix/internal/sim"
)

// TestSimLiveDifferential runs one scenario — one machine
// configuration, a scripted relay chooser, one faultinject schedule —
// through the simulator driver (this package, on sim + netsim + the
// real onion layer) and through the virtual-clock driver
// (sessiontest, whose fleet only models who is up and what state each
// relay holds), and requires the session to have done the same things
// in both: messages and segments sent, acks counted, slots condemned,
// paths repaired, messages rebuilt at the responder. The machine is the
// same code in both; what the test pins is that a driver is only a
// driver — the protocol's behaviour does not depend on which one runs
// it.
func TestSimLiveDifferential(t *testing.T) {
	const (
		nodes    = 62
		hop      = 50 * sim.Millisecond
		ackWait  = 2 * sim.Second
		probe    = sim.Second
		building = sim.Second // construction timeout
		start    = 5 * sim.Second
		every    = 400 * sim.Millisecond
		end      = 40 * sim.Second
	)
	// Initiator 0, responder 1, four 3-relay paths, and the script of
	// replacement paths: sixteen more, handed out in order. One crash
	// uses one: the rounds still outstanding on the dead path when it is
	// condemned are not charged to its replacement (Machine.Deadline).
	lists := [][]netsim.NodeID{{2, 3, 4}, {5, 6, 7}, {8, 9, 10}, {11, 12, 13}}
	var spares [][]netsim.NodeID
	for id := netsim.NodeID(14); id+2 < nodes; id += 3 {
		spares = append(spares, []netsim.NodeID{id, id + 1, id + 2})
	}
	cases := []struct {
		name   string
		faults faultinject.Schedule
	}{
		{"no fault", nil},
		{"mid-path relay crash", faultinject.Schedule{{AtMS: 9100, Kind: faultinject.Crash, Target: 6, Peer: -1}}},
		{"terminal relay crash", faultinject.Schedule{{AtMS: 9100, Kind: faultinject.Crash, Target: 10, Peer: -1}}},
		{"crash + restart", faultinject.Schedule{
			{AtMS: 9100, Kind: faultinject.Crash, Target: 3, Peer: -1, DurMS: 6000},
			{AtMS: 20100, Kind: faultinject.Crash, Target: 12, Peer: -1, DurMS: 3000},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// --- the simulator driver
			w, err := NewWorld(WorldConfig{N: nodes, Seed: 1, UniformRTT: 2 * hop, ConstructTimeout: building})
			if err != nil {
				t.Fatal(err)
			}
			s, err := w.NewSession(0, 1, Params{Protocol: SimEra, K: 4, R: 2, L: 3, AckTimeout: ackWait})
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			spare := func() ([]netsim.NodeID, bool) {
				if next == len(spares) {
					return nil, false
				}
				next++
				return spares[next-1], true
			}
			s.choose = func(n int, _ []netsim.NodeID) ([][]netsim.NodeID, error) {
				if n == len(lists) {
					return lists, nil
				}
				if relays, ok := spare(); ok {
					return [][]netsim.NodeID{relays}, nil
				}
				return nil, fmt.Errorf("script exhausted")
			}
			if _, err := faultinject.ApplySim(w.Eng, w.Net, tc.faults, nil); err != nil {
				t.Fatal(err)
			}
			s.Establish()
			w.Eng.ScheduleAt(start, func() {
				s.EnableRepair(probe)
				w.Eng.Every(0, every, func() {
					if w.Eng.Now() < end-10*sim.Second {
						if _, err := s.SendMessage([]byte("differential")); err != nil {
							t.Error(err)
						}
					}
				})
			})
			w.Run(end)
			st := s.Stats()

			// --- the virtual-clock driver
			next = 0
			d := sessiontest.NewDriver(nodes, hop, 1, 0, 1,
				session.Config{K: 4, M: 2, N: 4, AckTimeout: int64(ackWait)},
				sessiontest.Options{ConstructTimeout: building, ProbeInterval: probe})
			d.Choose = func(int, []netsim.NodeID) ([]netsim.NodeID, bool) { return spare() }
			if _, err := faultinject.ApplySim(d.Eng, d.Net, tc.faults, nil); err != nil {
				t.Fatal(err)
			}
			d.Establish(lists)
			d.Eng.ScheduleAt(start, func() {
				d.Start()
				d.Eng.Every(0, every, func() {
					if d.Eng.Now() < end-10*sim.Second {
						if _, err := d.Send([]byte("differential")); err != nil {
							t.Error(err)
						}
					}
				})
			})
			d.Eng.Run(end)
			c := d.Counts

			type tally struct{ messages, segments, acks, condemned, repaired, rebuilt, alive int }
			simulated := tally{st.MessagesSent, st.SegmentsSent, st.SegmentsAcked, st.PathsDied, st.PathsReplaced,
				int(w.Receivers[1].Delivered()), s.AlivePaths()}
			virtual := tally{c.MessagesSent, c.SegmentsSent, c.SegmentsAcked + c.ProbeAcks,
				c.Broken[session.AckTimeout] + c.Broken[session.ProbeTimeout], c.Repaired, c.Reconstructed, d.M.Alive()}
			if simulated != virtual {
				t.Fatalf("the two drivers disagree:\nsimulator     %+v\nvirtual clock %+v", simulated, virtual)
			}
			if simulated.messages == 0 || simulated.rebuilt != simulated.messages || simulated.alive != 4 {
				t.Fatalf("scenario lost its teeth: %+v", simulated)
			}
			if want := len(tc.faults); simulated.condemned != want || simulated.repaired != want {
				t.Fatalf("%d condemned, %d repaired, want %d of each: one per crash", simulated.condemned, simulated.repaired, want)
			}
		})
	}
}
