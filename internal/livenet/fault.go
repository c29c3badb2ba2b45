package livenet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// This file is the live transport's fault controller — the anonnode
// half of internal/faultinject's live backend. A node can be told, at
// runtime over its debug listener, to blackhole specific peers
// (connections to them neither dial nor answer, the TCP analogue of a
// partition), to delay every outbound frame (injected latency), or to
// silently discard a fraction of its outbound frames (injected drop).
// The chaos harness drives these to reproduce a fault schedule against
// a real fleet; blackholing both ends of a pair yields a symmetric
// partition.

// faultCtl holds a node's injected-fault state. All methods are safe
// for concurrent use.
type faultCtl struct {
	mu sync.Mutex
	// blackhole maps peer → expiry; the zero time means "until healed".
	blackhole map[netsim.NodeID]time.Time
	// latency delays every outbound frame.
	latency time.Duration
	// drop is the probability an outbound frame silently vanishes.
	drop float64
	rng  *rand.Rand
}

func newFaultCtl() *faultCtl {
	return &faultCtl{
		blackhole: make(map[netsim.NodeID]time.Time),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// blackholed reports whether the peer is currently blackholed,
// reaping expired entries.
func (f *faultCtl) blackholed(peer netsim.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	exp, ok := f.blackhole[peer]
	if !ok {
		return false
	}
	if !exp.IsZero() && time.Now().After(exp) {
		delete(f.blackhole, peer)
		return false
	}
	return true
}

// outboundFault samples the injected latency and the drop coin in one
// critical section.
func (f *faultCtl) outboundFault() (delay time.Duration, dropped bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.drop > 0 && f.rng.Float64() < f.drop {
		return 0, true
	}
	return f.latency, false
}

// BlackholePeer makes the node refuse all traffic to (and in-band
// identified traffic from) the peer. A positive dur auto-heals after
// that long; zero blackholes until HealPeer.
func (n *Node) BlackholePeer(peer netsim.NodeID, dur time.Duration) {
	exp := time.Time{}
	if dur > 0 {
		exp = time.Now().Add(dur)
	}
	n.flt.mu.Lock()
	n.flt.blackhole[peer] = exp
	n.flt.mu.Unlock()
	n.reg.Counter("live.fault.blackholes").Inc()
}

// HealPeer removes a blackhole.
func (n *Node) HealPeer(peer netsim.NodeID) {
	n.flt.mu.Lock()
	delete(n.flt.blackhole, peer)
	n.flt.mu.Unlock()
}

// SetFaultLatency delays every outbound frame by d (0 disables).
func (n *Node) SetFaultLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.flt.mu.Lock()
	n.flt.latency = d
	n.flt.mu.Unlock()
}

// SetFaultDrop makes every outbound frame silently vanish with
// probability p (0 disables).
func (n *Node) SetFaultDrop(p float64) error {
	if !(p >= 0 && p <= 1) { // NaN, which ParseFloat accepts, is outside too
		return fmt.Errorf("livenet: drop probability %g outside [0,1]", p)
	}
	n.flt.mu.Lock()
	n.flt.drop = p
	n.flt.mu.Unlock()
	return nil
}

// faultStatus is the JSON shape of GET /debug/fault.
type faultStatus struct {
	Blackholed []int   `json:"blackholed"`
	LatencyMS  int64   `json:"latency_ms"`
	Drop       float64 `json:"drop"`
}

// FaultHandler exposes the fault controller over HTTP for the chaos
// harness:
//
//	POST /debug/fault?op=blackhole&peer=3&dur=5s   partition one peer
//	POST /debug/fault?op=heal&peer=3               heal it
//	POST /debug/fault?op=latency&dur=200ms         delay outbound frames
//	POST /debug/fault?op=drop&value=0.3            drop outbound frames
//	GET  /debug/fault                              current fault state
//
// It is mounted on the gated debug listener next to /debug/pprof — a
// deliberately powerful surface that must never face the public.
func (n *Node) FaultHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			n.flt.mu.Lock()
			st := faultStatus{
				LatencyMS: n.flt.latency.Milliseconds(),
				Drop:      n.flt.drop,
			}
			now := time.Now()
			for peer, exp := range n.flt.blackhole {
				if exp.IsZero() || now.Before(exp) {
					st.Blackholed = append(st.Blackholed, int(peer))
				}
			}
			n.flt.mu.Unlock()
			sort.Ints(st.Blackholed)
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			json.NewEncoder(w).Encode(st)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		op := q.Get("op")
		var dur time.Duration
		if raw := q.Get("dur"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d < 0 {
				http.Error(w, "bad dur: want a non-negative Go duration", http.StatusBadRequest)
				return
			}
			dur = d
		}
		peer := func() (netsim.NodeID, bool) {
			id, err := strconv.Atoi(q.Get("peer"))
			if err != nil || id < 0 {
				http.Error(w, "bad peer: want a node id", http.StatusBadRequest)
				return 0, false
			}
			return netsim.NodeID(id), true
		}
		switch op {
		case "blackhole":
			p, ok := peer()
			if !ok {
				return
			}
			n.BlackholePeer(p, dur)
		case "heal":
			p, ok := peer()
			if !ok {
				return
			}
			n.HealPeer(p)
		case "latency":
			n.SetFaultLatency(dur)
		case "drop":
			v, err := strconv.ParseFloat(q.Get("value"), 64)
			if err != nil {
				http.Error(w, "bad value: want a probability", http.StatusBadRequest)
				return
			}
			if err := n.SetFaultDrop(v); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		default:
			http.Error(w, "op must be blackhole, heal, latency or drop", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// noteDropped counts a frame that went nowhere — refused by the fault
// controller, consumed by the injected drop rate, or failed on the wire
// — and traces why. size is the frame's bytes on the wire, header
// included.
func (n *Node) noteDropped(counter string, peer netsim.NodeID, sid uint64, size int, why obs.Reason) {
	n.reg.Counter(counter).Inc()
	n.emit(obs.Event{
		Type: obs.MsgDropped, At: time.Now().UnixMicro(),
		Node: int(n.cfg.ID), Peer: int(peer), ID: sid,
		Slot: -1, Hop: -1, Size: size,
		Reason: why,
	})
}
