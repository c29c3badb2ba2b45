// Micro-benchmarks for the erasure hot paths: non-systematic encode
// (the parity rows of Split), non-systematic decode (Reconstruct from
// parity segments, exercising the decoding-matrix path), and the
// systematic fast path, at the paper's code shapes. The repo benchmark
// (bench/, `--trace 1`) times Split and Reconstruct at its workloads'
// shapes; the allocation counts, which no host can move, are pinned by
// TestHotPathAllocs below.
package erasure

import (
	"fmt"
	"testing"
)

// benchShapes are the paper's SimEra(4,4) split at r=2, a wider r=4
// code, and a large code.
var benchShapes = []struct{ m, n int }{
	{4, 8},
	{5, 20},
	{16, 32},
}

const benchMsgLen = 4 * 1024

func benchMsg() []byte {
	msg := make([]byte, benchMsgLen)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	return msg
}

// TestHotPathAllocs pins what a message costs the allocator at every
// shape: Split allocates the segment headers and one backing buffer;
// Reconstruct from the all-parity segments, once the decoding matrix is
// cached, allocates the output and nothing else.
func TestHotPathAllocs(t *testing.T) {
	for _, s := range benchShapes {
		code, err := New(s.m, s.n)
		if err != nil {
			t.Fatal(err)
		}
		msg := benchMsg()
		segs, err := code.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		parity := segs[s.n-s.m:]
		split := testing.AllocsPerRun(100, func() {
			if _, err := code.Split(msg); err != nil {
				t.Fatal(err)
			}
		})
		reconstruct := testing.AllocsPerRun(100, func() {
			if _, err := code.Reconstruct(parity); err != nil {
				t.Fatal(err)
			}
		})
		if split != 2 || reconstruct != 1 {
			t.Errorf("(%d,%d): Split %v allocs, warm non-systematic Reconstruct %v; want 2 and 1",
				s.m, s.n, split, reconstruct)
		}
	}
}

// TestReconstructIntoAllocs pins ReconstructInto with a big enough dst
// at zero allocations, at every shape, on the systematic path and on
// the non-systematic one once its decoding matrix is cached: the chosen
// segments live in an array on the stack and the cache is looked up by
// the key's bytes.
func TestReconstructIntoAllocs(t *testing.T) {
	for _, s := range benchShapes {
		code, err := New(s.m, s.n)
		if err != nil {
			t.Fatal(err)
		}
		msg := benchMsg()
		segs, err := code.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, code.M()*len(segs[0].Data))
		for _, path := range []struct {
			name string
			segs []Segment
		}{{"systematic", segs[:s.m]}, {"parity", segs[s.n-s.m:]}} {
			if _, err := code.ReconstructInto(dst, path.segs); err != nil { // warm the cache
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := code.ReconstructInto(dst, path.segs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("(%d,%d) %s: ReconstructInto allocated %v times, want 0", s.m, s.n, path.name, allocs)
			}
		}
	}
}

// BenchmarkErasureEncode measures Split throughput, dominated by the
// n-m parity rows (the non-systematic half of the code).
func BenchmarkErasureEncode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("m%d_n%d", s.m, s.n), func(b *testing.B) {
			code, err := New(s.m, s.n)
			if err != nil {
				b.Fatal(err)
			}
			msg := benchMsg()
			b.SetBytes(benchMsgLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.Split(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkErasureDecodeNonSystematic measures Reconstruct from the
// last m (all-parity) segments, forcing the decoding-matrix path on
// every iteration — the worst case under churn, where the systematic
// segments' paths have died.
func BenchmarkErasureDecodeNonSystematic(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("m%d_n%d", s.m, s.n), func(b *testing.B) {
			code, err := New(s.m, s.n)
			if err != nil {
				b.Fatal(err)
			}
			segs, err := code.Split(benchMsg())
			if err != nil {
				b.Fatal(err)
			}
			parity := segs[s.n-s.m:]
			b.SetBytes(benchMsgLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.Reconstruct(parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkErasureDecodeSystematic measures the systematic fast path:
// segments 0..m-1 present, no matrix work at all.
func BenchmarkErasureDecodeSystematic(b *testing.B) {
	code, err := New(5, 20)
	if err != nil {
		b.Fatal(err)
	}
	segs, err := code.Split(benchMsg())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchMsgLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Reconstruct(segs[:5]); err != nil {
			b.Fatal(err)
		}
	}
}
