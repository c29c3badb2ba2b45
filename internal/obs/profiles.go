package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile and/or arms a heap profile — the
// implementation behind the -cpuprofile/-memprofile flags of
// cmd/anonsim and cmd/anonbench. Empty paths disable the respective
// profile. The returned stop function finalizes both files; callers
// must invoke it on every exit path (os.Exit skips defers), and
// calling it more than once is safe.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}
