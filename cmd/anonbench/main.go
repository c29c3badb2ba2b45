// Command anonbench reproduces the paper's evaluation: every table and
// figure of §6, at paper scale or in quick mode.
//
// Usage:
//
//	anonbench -list
//	anonbench -exp tab1            # one experiment at paper scale
//	anonbench -all -quick          # everything, reduced scale
//	anonbench -all -seed 7 -o results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	rm "resilientmix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: results go to stdout, timing lines and
// errors to stderr, and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anonbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment(s) to run, comma-separated (fig1..fig5, tab1..tab4, ext1..ext9)")
		all      = fs.Bool("all", false, "run every experiment in order")
		list     = fs.Bool("list", false, "list available experiments")
		quick    = fs.Bool("quick", false, "reduced scale: smaller network, fewer trials, shorter runs")
		seed     = fs.Int64("seed", 1, "base random seed")
		out      = fs.String("o", "", "write results to this file instead of stdout")
		csvDir   = fs.String("csv", "", "also write one CSV file per experiment into this directory")
		traceP   = fs.String("trace", "", "write a JSONL event trace of every simulated world to this file, gzip when it ends in .gz (interleaved across parallel workers; use anonsim for a deterministic single-world trace)")
		reportP  = fs.String("report", "", "write an aggregate JSON run report to this file")
		analyzeF = fs.Bool("analyze", false, "run offline trace analytics per experiment and append the digest to each result (aggregate summary lands in the report)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "anonbench:", err)
		return 1
	}

	if *list {
		for _, id := range rm.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if !*all && *expID == "" {
		fmt.Fprintln(stderr, "anonbench: need -exp <id> or -all (use -list to see experiments)")
		return 2
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	cfgMap := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { cfgMap[f.Name] = f.Value.String() })

	stopProf, err := rm.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	wallStart := time.Now()

	var traceFile *rm.TraceFile
	var tr rm.Tracer
	if *traceP != "" {
		traceFile, err = rm.CreateTraceFile(*traceP)
		if err != nil {
			return fail(err)
		}
		tr = traceFile
	}
	var reg *rm.MetricsRegistry
	if *reportP != "" {
		reg = rm.NewMetricsRegistry()
	}

	opts := rm.ExperimentOptions{Seed: *seed, Quick: *quick, Tracer: tr, Metrics: reg, Analyze: *analyzeF}
	ids := rm.ExperimentIDs()
	if !*all {
		ids = nil
		if *expID != "" {
			ids = strings.Split(*expID, ",")
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
	}
	outcome := make(map[string]float64)
	// agg merges per-experiment analysis summaries for the report.
	var agg rm.RunReport
	for _, id := range ids {
		start := time.Now()
		id = strings.TrimSpace(id)
		res, err := rm.RunExperiment(id, opts)
		if err != nil {
			return fail(err)
		}
		if err := res.Render(w); err != nil {
			return fail(err)
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			if err != nil {
				return fail(err)
			}
			if err := res.WriteCSV(f); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
		}
		if a := res.Analysis; a != nil {
			outcome[id+".messages"] = float64(a.Messages)
			outcome[id+".delivered"] = float64(a.Delivered)
			outcome[id+".integrity_errors"] = float64(a.IntegrityErrors)
			mergeAnalysis(&agg, a)
		}
		outcome[id+".wall_seconds"] = time.Since(start).Seconds()
		fmt.Fprintf(stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}

	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail(err)
		}
	}
	if *reportP != "" {
		rep := &rm.RunReport{
			SchemaVersion: rm.RunReportSchemaVersion,
			Name:          "anonbench",
			Seed:          *seed,
			Config:        cfgMap,
			WallSeconds:   time.Since(wallStart).Seconds(),
			Outcome:       outcome,
			Drops:         reg.CountersWithPrefix("net.dropped."),
			Analysis:      agg.Analysis,
		}
		if traceFile != nil {
			rep.TraceEvents = traceFile.Events()
		}
		snap := reg.Snapshot()
		rep.Metrics = &snap
		rep.FillPercentiles()
		if err := rep.WriteJSONFile(*reportP); err != nil {
			return fail(err)
		}
	}
	if err := stopProf(); err != nil {
		return fail(err)
	}
	return 0
}

// mergeAnalysis accumulates one experiment's count-based analysis
// fields into the aggregate report block. Rate and quantile fields are
// per-experiment figures and do not sum, so they stay unset here — read
// them from each experiment's notes, or run anonsim -analyze for a
// single-world summary.
func mergeAnalysis(rep *rm.RunReport, a *rm.TraceAnalysisSummary) {
	if rep.Analysis == nil {
		rep.Analysis = &rm.TraceAnalysisSummary{}
	}
	t := rep.Analysis
	t.EventsAnalyzed += a.EventsAnalyzed
	t.Messages += a.Messages
	t.Delivered += a.Delivered
	t.Failed += a.Failed
	t.MessagesInFlight += a.MessagesInFlight
	t.Journeys += a.Journeys
	t.JourneysDelivered += a.JourneysDelivered
	t.JourneysDropped += a.JourneysDropped
	t.JourneysStalled += a.JourneysStalled
	t.JourneysInFlight += a.JourneysInFlight
	t.IntegrityErrors += a.IntegrityErrors
	t.IntegrityDetails = append(t.IntegrityDetails, a.IntegrityDetails...)
	if len(a.DropReasons) > 0 && t.DropReasons == nil {
		t.DropReasons = make(map[string]uint64)
	}
	for name, n := range a.DropReasons {
		t.DropReasons[name] += n
	}
}
