package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the calibration needs.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runChild runs one workload in a fresh process, as the acceptance
// procedure does, and returns its result line.
func runChild(workload string, seed int64, seconds int, traced bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &line, nil
}

// calibration is what a calibration leaves behind for the next one to
// compare against: the median of every metric on every workload.
type calibration struct {
	Runs    int                           `json:"runs"`
	Medians map[string]map[string]float64 `json:"medians"` // workload -> metric -> median
}

// runSets runs `sets` sets (one run of every workload, each set with
// another seed) in child processes and prints, per workload and metric,
// the median, the quartiles as Python's statistics.quantiles gives them,
// the spread (q3-q1)/median and the largest relative deviation from the
// median. With check it fails when an end-to-end spread exceeds the
// metric's bound in BENCHMARK.json, or when a median is worse than the
// one in comparePath by more than the bound.
func runSets(w io.Writer, sets int, seed int64, seconds int, traced, check bool, comparePath string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("calibration needs the repository's BENCHMARK.json in the working directory: %w", err)
	}
	var previous *calibration
	if comparePath != "" {
		b, err := os.ReadFile(comparePath)
		if err != nil {
			return err
		}
		previous = new(calibration)
		if err := json.Unmarshal(b, previous); err != nil {
			return fmt.Errorf("%s: %w", comparePath, err)
		}
	}
	host := readHost()
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, kernel %s, %s, loadavg1 %.2f, TIME_WAIT sockets at start %d\n\n",
		host.NProc, host.GoMaxProcs, strings.TrimSpace(string(kernel)), runtime.Version(), host.LoadAvg1, host.TimeWait)
	if host.Warning != "" {
		fmt.Fprintf(w, "warning: %s\n\n", host.Warning)
	}

	values := make(map[string]map[string][]float64) // workload -> metric -> one value per set
	incorrect := 0
	for s := 0; s < sets; s++ {
		for _, wl := range workloadNames {
			line, err := runChild(wl, seed+int64(s), seconds, traced)
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s seed %d: attempted %d failed %d correct %v\n",
				s+1, sets, wl, seed+int64(s), line.Attempted, line.Failed, line.Correct)
			if values[wl] == nil {
				values[wl] = make(map[string][]float64)
			}
			for name, mv := range line.Metrics {
				values[wl][name] = append(values[wl][name], mv.Value)
			}
		}
	}

	type gate struct {
		unit, better string
		bound        float64
	}
	gates := make(map[string]gate)
	var order []string
	if traced {
		for _, m := range bf.PerLayer {
			gates[m.Name] = gate{m.Unit, m.Better, 0}
			order = append(order, m.Name)
		}
	} else {
		for _, m := range bf.EndToEnd {
			gates[m.Name] = gate{m.Unit, m.Better, m.Bound}
			order = append(order, m.Name)
		}
	}

	now := calibration{Runs: sets, Medians: make(map[string]map[string]float64)}
	misses := 0
	for _, wl := range workloadNames {
		now.Medians[wl] = make(map[string]float64)
		fmt.Fprintf(w, "### %s (%d runs, seeds %d..%d, %d s each)\n\n", wl, sets, seed, seed+int64(sets)-1, seconds)
		fmt.Fprintln(w, "| metric | unit | median | q1 | q3 | spread (q3-q1)/median | largest deviation | bound | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
		for _, name := range order {
			xs := values[wl][name]
			g := gates[name]
			q1, _, q3 := quartiles(xs)
			med := median(xs)
			now.Medians[wl][name] = med
			spread := safeDiv(q3-q1, math.Abs(med))
			var dev float64
			for _, x := range xs {
				dev = math.Max(dev, safeDiv(math.Abs(x-med), math.Abs(med)))
			}
			verdict := "-"
			if !traced {
				verdict = "pass"
				// setup_s is gated on its median only: its spread is
				// reported, not bounded.
				if name != "setup_s" && spread > g.bound {
					verdict = "MISS (spread)"
				}
				if previous != nil {
					if prev, ok := previous.Medians[wl][name]; ok && prev != 0 {
						worse := (med - prev) / prev
						if g.better == "higher" {
							worse = -worse
						}
						verdict += fmt.Sprintf(", median %+.2f %% vs previous", 100*(med-prev)/prev)
						if worse > g.bound {
							verdict = "MISS (median worse than previous by more than the bound)" + verdict[strings.Index(verdict, ","):]
						}
					}
				}
				if strings.HasPrefix(verdict, "MISS") {
					misses++
				}
			}
			bound := "-"
			if !traced {
				bound = strconv.FormatFloat(g.bound, 'g', -1, 64)
			}
			fmt.Fprintf(w, "| `%s` | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %s | %s |\n",
				name, g.unit, med, q1, q3, spread, dev, bound, verdict)
		}
		fmt.Fprintln(w)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(now, "", "  ")
	if err != nil {
		return err
	}
	saved := filepath.Join(outDir, "calibration.json")
	if err := os.WriteFile(saved, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "medians saved to %s (pass it to -compare on the next calibration)\n", saved)
	if check && (misses > 0 || incorrect > 0) {
		return fmt.Errorf("calibration: %d metric(s) missed their bound, %d run(s) incorrect", misses, incorrect)
	}
	return nil
}
