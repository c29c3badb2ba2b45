// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees and the per-layer metrics
// under them. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

const (
	defaultSeed = 1
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 24
)

var outDir = "bench/out"

func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}

// runWorkload runs one workload once.
func runWorkload(name string, seed int64, sz sizes, traced bool) (*result, error) {
	host := readHost()
	refBefore := hostRefMS()
	run := func() (*result, error) { return runSim(seed, sz, traced) }
	if name != "sim_paper" {
		spec, ok := liveSpecByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
		}
		run = func() (*result, error) { return runLive(spec, seed, sz, traced) }
	}
	res, err := run()
	if err != nil {
		return nil, err
	}
	if traced {
		if err := runMicro(sz.microBudget, res); err != nil {
			return nil, err
		}
		decompose(res)
	}
	res.host = host
	res.info["info.host_ref_ms"] = refBefore
	res.info["info.host_ref_after_ms"] = hostRefMS()
	return res, nil
}

// metricValue is how a metric appears in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run for a reader and, as the last line, for the
// driver: with traced false every end-to-end metric, with traced true
// every per-layer metric.
func report(w io.Writer, res *result, traced bool) error {
	h := res.host
	fmt.Fprintf(w, "workload %s: attempted %d failed %d latency samples %d\n", res.workload, res.attempted, res.failed, res.samples)
	fmt.Fprintf(w, "host: nproc %d GOMAXPROCS %d %s loadavg1 %.2f time_wait %d\n", h.NProc, h.GoMaxProcs, h.GoVersion, h.LoadAvg1, h.TimeWait)
	if h.Warning != "" {
		fmt.Fprintln(w, "warning:", h.Warning)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layer
		printLayerTable(w, res.table)
		// The traced run's own end-to-end readings, for context only:
		// end-to-end metrics come from the untraced run.
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  (traced) %-38s %16.6g %s\n", d.name, res.e2e[d.name], d.unit)
		}
	}
	line := resultLine{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-47s %16.6g %s\n", d.name, values[d.name], d.unit)
		line.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	info := make([]string, 0, len(res.info))
	for k := range res.info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(w, "%-47s %16.6g\n", k, res.info[k])
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	workload := flag.String("workload", "", "workload to run once: "+fmt.Sprint(workloadNames)+"; empty runs one set of all four")
	seed := flag.Int64("seed", defaultSeed, "workload seed: payloads, fault schedule, simulated world")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase, in 1-s windows")
	trace := flag.Int("trace", 0, "1: traced run (spans, microbench rows, per-layer metrics); 0: end-to-end metrics")
	calibrate := flag.Int("calibrate", 0, "run N full sets, each run with another seed, and check every end-to-end metric's spread against its bound")
	compare := flag.String("compare", "", "with -calibrate: a calibration.json of an earlier calibration whose medians this one must not be worse than")
	flag.StringVar(&outDir, "out", outDir, "directory for trace-<workload>.jsonl and calibration.json")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *workload == "" {
		sets := *calibrate
		if sets < 1 {
			sets = 1
		}
		if err := runSets(os.Stdout, sets, *seed, *seconds, *trace == 1, *calibrate > 0, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(*workload, *seed, defaultSizes(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
