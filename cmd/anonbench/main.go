// Command anonbench reproduces the paper's evaluation: every table and
// figure of §6, the extensions and the ablations, at paper scale or in
// quick mode.
//
// Usage:
//
//	anonbench -list
//	anonbench -exp tab1            # one experiment at paper scale
//	anonbench -all -quick          # everything, reduced scale
//	anonbench -all -seed 7 -o results.txt
//
// Results go to stdout, -o and -csv; -cpuprofile/-memprofile are the
// only other artifacts. Experiments run their worlds in parallel, so a
// trace or run report of one simulation is anonsim's job.
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
		expID   = fs.String("exp", "", "experiment(s) to run, comma-separated ("+strings.Join(rm.ExperimentIDs(), ", ")+")")
		all     = fs.Bool("all", false, "run every experiment in order")
		list    = fs.Bool("list", false, "list available experiments")
		quick   = fs.Bool("quick", false, "reduced scale: smaller network, fewer trials, shorter runs")
		seed    = fs.Int64("seed", 1, "base random seed")
		out     = fs.String("o", "", "write results to this file instead of stdout")
		csvDir  = fs.String("csv", "", "also write one CSV file per experiment into this directory")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file")
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

	stopProf, err := rm.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}

	opts := rm.ExperimentOptions{Seed: *seed, Quick: *quick}
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
		fmt.Fprintf(stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}

	if err := stopProf(); err != nil {
		return fail(err)
	}
	return 0
}
