// Package topology synthesizes the pairwise latency matrix of the
// simulated network. The paper derives inter-node latencies from King
// measurements of 1024 DNS servers with an average RTT of 152 ms (§6.1);
// that dataset is not redistributable, so we generate a matrix with the
// same statistical character: a random 2-D geographic embedding plus
// lognormal per-pair jitter, rescaled so the mean RTT matches exactly.
// See DESIGN.md, substitution 2.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"resilientmix/internal/sim"
)

// DefaultMeanRTT is the average round-trip time reported for the paper's
// simulated network.
const DefaultMeanRTT = 152 * sim.Millisecond

// MinRTT is a floor applied to every pair so no two distinct nodes are
// unrealistically close.
const MinRTT = 2 * sim.Millisecond

// Latency is the view of a topology the simulators need: a one-way
// latency for every ordered pair of distinct nodes, plus the global
// minimum the sharded engine's conservative lookahead is derived from.
// Matrix (dense, exact, O(n^2) memory) and Geo (coordinate-based,
// O(n) memory, for 100k+ node sweeps) both implement it.
type Latency interface {
	N() int
	OneWay(i, j int) sim.Time
	// MinOneWay returns a positive lower bound on OneWay over all
	// distinct pairs. It may be conservative (smaller than the true
	// minimum); the sharded engine only needs "no cross-node event
	// arrives sooner than this".
	MinOneWay() sim.Time
}

// CrossLatency is an optional refinement of Latency: the minimum
// one-way latency restricted to pairs whose shard assignments differ.
// When the topology can afford the scan, this bound is tighter than
// MinOneWay, which widens the sharded engine's synchronization windows.
type CrossLatency interface {
	// MinCrossOneWay returns the minimum OneWay over pairs (i, j) with
	// assign[i] != assign[j], and false when no such pair exists (all
	// nodes on one shard).
	MinCrossOneWay(assign []int32) (sim.Time, bool)
}

// LookaheadFor returns the conservative lookahead bound for a sharded
// run over lat with the given node→shard assignment: the minimum
// cross-shard one-way latency when the topology can compute it, the
// global minimum otherwise. The result is the widest window width that
// still guarantees no cross-shard event lands inside the window that
// scheduled it.
func LookaheadFor(lat Latency, assign []int32) sim.Time {
	if cl, ok := lat.(CrossLatency); ok {
		if v, found := cl.MinCrossOneWay(assign); found {
			return v
		}
	}
	return lat.MinOneWay()
}

// Matrix holds symmetric pairwise RTTs for n nodes. The zero diagonal
// means a node reaches itself instantly.
type Matrix struct {
	n   int
	rtt []sim.Time // row-major n*n, microseconds
}

// Generate builds an n-node latency matrix using the given seed, scaled
// to the requested mean RTT.
func Generate(n int, meanRTT sim.Time, seed int64) (*Matrix, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes, got %d", n)
	}
	if meanRTT <= 0 {
		return nil, fmt.Errorf("topology: mean RTT must be positive, got %v", meanRTT)
	}
	m, _ := generate(n, meanRTT, seed)
	return m, nil
}

// generate is Generate past its argument checks. It also returns the
// factor the raw RTTs were scaled by: the one value the order of the
// mean's sum shows in, since rounding to whole microseconds hides a
// last-bit change of the scale in nearly every entry.
func generate(n int, meanRTT sim.Time, seed int64) (*Matrix, float64) {
	rng := rand.New(rand.NewSource(seed))

	// Random 2-D embedding: captures the triangle-inequality-ish
	// geographic structure of real latencies.
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}

	// The upper triangle is the scratch space, holding float64 bits until
	// the last pass: first each pair's jitter draw, then its jitter, then
	// its raw RTT. Draws and the pass that sums stay in pair order, so the
	// matrix does not depend on how many cores compute the jitters
	// (DESIGN.md §6).
	m := &Matrix{n: n, rtt: make([]sim.Time, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.rtt[i*n+j] = sim.Time(math.Float64bits(rng.NormFloat64()))
		}
	}
	byRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				jitter := math.Exp(math.Float64frombits(uint64(m.rtt[i*n+j])) * 0.35)
				m.rtt[i*n+j] = sim.Time(math.Float64bits(jitter))
			}
		}
	})
	// Raw RTT = distance * lognormal jitter. The product and the sum are
	// the sequential code's expressions, on one goroutine, so a compiler
	// that fuses `sum += dist * jitter` into one multiply-add does it
	// here too.
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			dist := math.Sqrt(dx*dx + dy*dy)
			jitter := math.Float64frombits(uint64(m.rtt[i*n+j]))
			v := dist * jitter
			m.rtt[i*n+j] = sim.Time(math.Float64bits(v))
			sum += v
		}
	}
	pairs := n * (n - 1) / 2
	scale := float64(meanRTT) / (sum / float64(pairs))
	// Rows [lo, hi) write their upper triangle and the same columns below
	// the diagonal, which no other rows touch. The mirror goes one
	// rowChunk-square tile at a time, so it writes runs of a few rows'
	// entries instead of one entry in every row.
	byRows(n, func(lo, hi int) {
		for jt := lo; jt < n; jt += rowChunk {
			for i := lo; i < hi; i++ {
				for j := max(i+1, jt); j < min(jt+rowChunk, n); j++ {
					v := sim.Time(math.Float64frombits(uint64(m.rtt[i*n+j])) * scale)
					if v < MinRTT {
						v = MinRTT
					}
					m.rtt[i*n+j] = v
					m.rtt[j*n+i] = v
				}
			}
		}
	})
	return m, scale
}

// rowChunk is how many consecutive rows a worker takes at a time. It is
// a multiple of the eight entries in a 64-byte cache line, so when n is
// a multiple of 8 (the paper's 1024) the column writes of two workers
// never share a line; otherwise they share one at a span's edge, which
// costs time but not correctness.
const rowChunk = 16

// byRows calls rows(lo, hi) over consecutive rowChunk-row spans covering
// [0, n), on up to GOMAXPROCS goroutines that each take the next span
// until none are left (a triangle's rows shrink, so a fixed split would
// not balance), and returns when all are done.
func byRows(n int, rows func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), (n+rowChunk-1)/rowChunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(rowChunk)) - rowChunk
				if lo >= n {
					return
				}
				rows(lo, min(lo+rowChunk, n))
			}
		}()
	}
	wg.Wait()
}

// Uniform returns a matrix where every distinct pair has the same RTT —
// useful for analytically predictable tests.
func Uniform(n int, rtt sim.Time) (*Matrix, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes, got %d", n)
	}
	if rtt <= 0 {
		return nil, fmt.Errorf("topology: RTT must be positive, got %v", rtt)
	}
	m := &Matrix{n: n, rtt: make([]sim.Time, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.rtt[i*n+j] = rtt
			}
		}
	}
	return m, nil
}

// N returns the number of nodes.
func (m *Matrix) N() int { return m.n }

// RTT returns the round-trip time between nodes i and j.
func (m *Matrix) RTT(i, j int) sim.Time { return m.rtt[i*m.n+j] }

// OneWay returns the one-way latency between i and j (half the RTT).
func (m *Matrix) OneWay(i, j int) sim.Time { return m.rtt[i*m.n+j] / 2 }

// MinOneWay returns the exact minimum one-way latency over all
// distinct pairs — the conservative lookahead bound for the sharded
// engine when no shard assignment is known.
func (m *Matrix) MinOneWay() sim.Time {
	min := sim.Time(0)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if v := m.rtt[i*m.n+j]; min == 0 || v < min {
				min = v
			}
		}
	}
	return min / 2
}

// MinCrossOneWay returns the minimum one-way latency over pairs whose
// shard assignments differ. A tighter bound than MinOneWay when the
// closest pairs happen to share a shard, which directly widens the
// sharded engine's lock-step windows.
func (m *Matrix) MinCrossOneWay(assign []int32) (sim.Time, bool) {
	if len(assign) != m.n {
		panic(fmt.Sprintf("topology: assignment for %d nodes, matrix has %d", len(assign), m.n))
	}
	min := sim.Time(0)
	found := false
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if assign[i] == assign[j] {
				continue
			}
			if v := m.rtt[i*m.n+j]; !found || v < min {
				min, found = v, true
			}
		}
	}
	return min / 2, found
}

// MeanRTT returns the mean over all distinct pairs.
func (m *Matrix) MeanRTT() sim.Time {
	var sum int64
	var pairs int64
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			sum += int64(m.rtt[i*m.n+j])
			pairs++
		}
	}
	return sim.Time(sum / pairs)
}
