package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"resilientmix/internal/sim"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(1, DefaultMeanRTT, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Generate(10, 0, 1); err == nil {
		t.Error("zero mean RTT accepted")
	}
}

func TestGenerateMeanRTT(t *testing.T) {
	m, err := Generate(256, DefaultMeanRTT, 42)
	if err != nil {
		t.Fatal(err)
	}
	mean := m.MeanRTT()
	// The MinRTT floor can push the mean slightly above target.
	lo, hi := DefaultMeanRTT*95/100, DefaultMeanRTT*105/100
	if mean < lo || mean > hi {
		t.Fatalf("mean RTT = %v, want within 5%% of %v", mean, DefaultMeanRTT)
	}
}

func TestGenerateSymmetricZeroDiagonal(t *testing.T) {
	m, err := Generate(64, DefaultMeanRTT, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N(); i++ {
		if m.RTT(i, i) != 0 {
			t.Fatalf("RTT(%d,%d) = %v, want 0", i, i, m.RTT(i, i))
		}
		for j := i + 1; j < m.N(); j++ {
			if m.RTT(i, j) != m.RTT(j, i) {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if m.RTT(i, j) < MinRTT {
				t.Fatalf("RTT(%d,%d) = %v below floor", i, j, m.RTT(i, j))
			}
			if m.OneWay(i, j) != m.RTT(i, j)/2 {
				t.Fatalf("OneWay != RTT/2 at (%d,%d)", i, j)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(32, DefaultMeanRTT, 99)
	b, _ := Generate(32, DefaultMeanRTT, 99)
	c, _ := Generate(32, DefaultMeanRTT, 100)
	same, diff := true, false
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				same = false
			}
			if a.RTT(i, j) != c.RTT(i, j) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different matrices")
	}
	if !diff {
		t.Error("different seeds produced identical matrices")
	}
}

func TestUniformMatrix(t *testing.T) {
	m, err := Uniform(8, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 100 * sim.Millisecond
			if i == j {
				want = 0
			}
			if m.RTT(i, j) != want {
				t.Fatalf("RTT(%d,%d) = %v, want %v", i, j, m.RTT(i, j), want)
			}
		}
	}
	if m.MeanRTT() != 100*sim.Millisecond {
		t.Fatalf("MeanRTT = %v", m.MeanRTT())
	}
	if _, err := Uniform(1, sim.Second); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Uniform(4, 0); err == nil {
		t.Error("rtt=0 accepted")
	}
}

// generateSequential is Generate as it was written before the per-pair
// arithmetic ran on several cores: one goroutine, a separate raw buffer.
// It is the reference the parallel matrix must equal bit for bit.
func generateSequential(n int, meanRTT sim.Time, seed int64) ([]sim.Time, float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	rtt := make([]sim.Time, n*n)
	raw := make([]float64, n*n)
	var sum float64
	var pairs int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			dist := math.Sqrt(dx*dx + dy*dy)
			jitter := math.Exp(rng.NormFloat64() * 0.35)
			v := dist * jitter
			raw[i*n+j] = v
			sum += v
			pairs++
		}
	}
	scale := float64(meanRTT) / (sum / float64(pairs))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := sim.Time(raw[i*n+j] * scale)
			if v < MinRTT {
				v = MinRTT
			}
			rtt[i*n+j] = v
			rtt[j*n+i] = v
		}
	}
	return rtt, scale
}

// TestGenerateMatchesSequential pins the matrix to the single-goroutine
// reference at every scheduler width: draws and the mean's sum stay in
// pair order, so no core count may move a single entry. The scale
// factor is compared to the bit as well, because a sum taken in another
// order moves it by an ulp or two, which truncation to whole
// microseconds hides in the matrix.
func TestGenerateMatchesSequential(t *testing.T) {
	type ref struct {
		rtt   []sim.Time
		scale float64
	}
	sizes := []int{2, 3, 17, 256, 1024}
	seeds := []int64{0, 1, 2}
	want := make(map[[2]int64]ref)
	for _, n := range sizes {
		for _, seed := range seeds {
			rtt, scale := generateSequential(n, DefaultMeanRTT, seed)
			want[[2]int64{int64(n), seed}] = ref{rtt, scale}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range sizes {
			for _, seed := range seeds {
				m, scale := generate(n, DefaultMeanRTT, seed)
				w := want[[2]int64{int64(n), seed}]
				if !slices.Equal(m.rtt, w.rtt) {
					t.Errorf("GOMAXPROCS=%d n=%d seed=%d: matrix differs from the sequential reference", procs, n, seed)
				}
				if math.Float64bits(scale) != math.Float64bits(w.scale) {
					t.Errorf("GOMAXPROCS=%d n=%d seed=%d: scale %v, sequential reference %v", procs, n, seed, scale, w.scale)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// paperMatrixSHA256 is the sha256 of the 1024-node, seed-1 matrix (the
// paper-scale world every seed-1 figure is built on), entries as
// little-endian int64 microseconds in row-major order.
const paperMatrixSHA256 = "70f20b02bef7edfe705e71dedeb5c55f1260379c27afca54656232781d445ed6"

func BenchmarkGenerate1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(1024, DefaultMeanRTT, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPaperScaleMatrix(t *testing.T) {
	// The full 1024-node matrix of the paper's setup must generate
	// quickly and hit the documented mean.
	m, err := Generate(1024, DefaultMeanRTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 1024 {
		t.Fatalf("N = %d", m.N())
	}
	mean := m.MeanRTT()
	if mean < 140*sim.Millisecond || mean > 165*sim.Millisecond {
		t.Fatalf("1024-node mean RTT = %v, want ≈152ms", mean)
	}
	// The hash names the cause when the matrix moves with the code
	// unchanged: a Go release or platform whose math package computes
	// another last bit, or whose compiler fuses a multiply-add (arm64,
	// ppc64, s390x and riscv64 may; amd64 does not).
	b := make([]byte, 0, 8*len(m.rtt))
	for _, v := range m.rtt {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != paperMatrixSHA256 {
		t.Fatalf("1024-node seed-1 matrix sha256 = %s, pinned %s: math.Exp, math.Sqrt or rand.NormFloat64 "+
			"returns different bits, or a multiply-add is fused, on this Go release or platform, "+
			"and every seed-1 figure will move with it", got, paperMatrixSHA256)
	}
}
