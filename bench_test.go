// Benchmarks of the public API's simulated data path: one SimEra
// message (CI's smoke step runs it for allocs/op) and the tracer
// overhead guard of DESIGN.md §7. Every table, figure, extension and
// ablation is an experiment in internal/experiments, run by
// cmd/anonbench.
package resilientmix_test

import (
	"testing"

	rm "resilientmix"
)

// BenchmarkSimEraMessage measures the end-to-end cost of one SimEra
// message through the public API on a healthy network (library
// overhead, not protocol behaviour).
func BenchmarkSimEraMessage(b *testing.B) {
	net, err := rm.NewNetwork(rm.NetworkConfig{N: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := net.NewSession(0, 1, rm.Params{Protocol: rm.SimEra, K: 4, R: 2})
	if err != nil {
		b.Fatal(err)
	}
	var ok bool
	sess.OnEstablished = func(o bool, _ int) { ok = o }
	sess.Establish()
	net.Run(net.Eng.Now() + rm.Minute)
	if !ok {
		b.Fatal("establishment failed")
	}
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.SendMessage(msg); err != nil {
			b.Fatal(err)
		}
		net.Run(net.Eng.Now() + 10*rm.Second)
	}
}

// obsOverheadRun is the workload behind the tracer-overhead guard: a
// fig2-scale churning world driven through warmup plus a session
// message loop — the hot paths every obs emit site sits on.
func obsOverheadRun(b *testing.B, seed int64, tr rm.Tracer) {
	b.Helper()
	lifetime, err := rm.ParetoLifetime(1, rm.Hour)
	if err != nil {
		b.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{
		N:        128,
		Seed:     seed,
		Lifetime: lifetime,
		Pinned:   []rm.NodeID{0, 1},
		Suite:    rm.SuiteECIES,
		Tracer:   tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := net.StartChurn(); err != nil {
		b.Fatal(err)
	}
	net.Run(rm.Hour)
	sess, err := net.NewSession(0, 1, rm.Params{Protocol: rm.SimEra, K: 4, R: 2, MaxEstablishAttempts: 200})
	if err != nil {
		b.Fatal(err)
	}
	sess.Establish()
	end := net.Eng.Now() + 30*rm.Minute
	msg := make([]byte, 1024)
	var tick func()
	tick = func() {
		if net.Eng.Now() >= end {
			return
		}
		if sess.Established() {
			sess.SendMessage(msg)
		}
		net.Eng.Schedule(10*rm.Second, tick)
	}
	net.Eng.Schedule(0, tick)
	net.Run(end + rm.Minute)
}

// BenchmarkObsOverheadOff is the baseline for the observability
// overhead guard: no tracer installed, so every emit site takes the
// single-nil-check fast path.
func BenchmarkObsOverheadOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obsOverheadRun(b, int64(900+i), nil)
	}
}

// BenchmarkObsOverheadNoop runs the identical workload with a no-op
// tracer installed. The guard: ns/op here must stay within 2% of
// BenchmarkObsOverheadOff — if it drifts past that, an emit site has
// grown work outside its tracer-nil guard (allocation, formatting, or
// map lookups that should be pre-resolved instruments).
func BenchmarkObsOverheadNoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obsOverheadRun(b, int64(900+i), rm.NoopTracer{})
	}
}
