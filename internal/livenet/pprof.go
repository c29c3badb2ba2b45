package livenet

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
)

// This file is the node's profiling surface. net/http/pprof may only
// be imported here (ci/lint enforces it): its init registers
// handlers on http.DefaultServeMux, and confining the import to this
// package — which never serves the default mux — keeps profile
// endpoints strictly behind the operator-gated -debug listener.

// Contention profiles are empty until their samplers are armed; the
// rates below keep overhead negligible (≈1 in 100 mutex contention
// events, blocking events sampled once per millisecond blocked).
const (
	mutexProfileFraction = 100
	blockProfileRateNs   = 1_000_000
)

var armProfilersOnce sync.Once

// PprofHandler serves the full /debug/pprof/* tree: the index, the
// CPU profile (?seconds=), the execution trace, and every runtime
// profile (heap, allocs, goroutine, mutex, block, threadcreate). The
// first call arms the mutex and block samplers. Mount it at
// /debug/pprof/ on the gated debug mux only.
func PprofHandler() http.Handler {
	armProfilersOnce.Do(func() {
		runtime.SetMutexProfileFraction(mutexProfileFraction)
		runtime.SetBlockProfileRate(blockProfileRateNs)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
