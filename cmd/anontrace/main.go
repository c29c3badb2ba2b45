// Command anontrace is the offline trace-analytics tool: it consumes
// the JSONL traces and JSON run reports written by cmd/anonsim (and
// the live traces cmd/anonctl captures) and reconstructs what the run
// actually did.
//
// Subcommands:
//
//	anontrace report <trace.jsonl[.gz]>   analyze a trace: stream
//	    accounting, trace-integrity findings, latency attribution and
//	    anonymity observables. -reconcile cross-checks the analysis
//	    against a run report's registry aggregates; -strict exits
//	    non-zero on any integrity error. The source may also be a live
//	    node's stream URL (http://host:port/debug/trace?dur=10s): the
//	    request captures for the given duration, then analyzes the
//	    events exactly like a file.
//	anontrace stream <trace.jsonl[.gz]>   print per-message causal
//	    timelines (every hop, retry and terminal outcome); -id selects
//	    one message.
//
// Flags go before or after the trace source.
//
// Examples:
//
//	anonsim -seed 7 -trace run.jsonl.gz -report run.json
//	anontrace report -reconcile run.json -strict run.jsonl.gz
//	anontrace stream run.jsonl.gz -id 1234567890
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"resilientmix/internal/obs"
	"resilientmix/internal/obs/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage:
  anontrace report [-reconcile report.json] [-strict] <trace.jsonl[.gz] | URL>
  anontrace stream [-id mid] <trace.jsonl[.gz] | URL>`

// run is the whole command: the analysis goes to stdout, usage and
// errors to stderr, and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(args []string, stdout, stderr io.Writer) int{
		"report": cmdReport,
		"stream": cmdStream,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	return cmds[args[0]](args[1:], stdout, stderr)
}

// fail reports an error that ends a subcommand and returns its exit
// code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "anontrace:", err)
	return 1
}

// parseSource parses one subcommand line: the flags of fs and exactly
// one trace source, in either order. The flag package stops at the
// first positional, so that is set aside and parsing resumes behind it.
// A refused line has been answered on stderr and returns no source,
// with the exit code to stop with.
func parseSource(fs *flag.FlagSet, args []string, stderr io.Writer) (src string, exit int) {
	fs.SetOutput(stderr)
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return "", 0
			}
			return "", 2
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(pos) != 1 {
		fmt.Fprintf(stderr, "%s: want one trace source, got %d\n%s\n", fs.Name(), len(pos), usage)
		return "", 2
	}
	return pos[0], 0
}

// readSource analyzes a trace from a file path or, when src starts
// with http:// or https://, from a live node's /debug/trace stream —
// e.g. anontrace report "http://127.0.0.1:19100/debug/trace?dur=10s".
// The HTTP request blocks for the stream's duration, then the captured
// events are analyzed exactly like a trace file's.
func readSource(src string) (*analyze.Result, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return analyze.ReadFile(src)
	}
	resp, err := http.Get(src)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", src, resp.StatusCode)
	}
	a := analyze.New()
	if err := obs.ForEachEvent(resp.Body, func(e obs.Event) error {
		a.Emit(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return a.Finalize(), nil
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anontrace report", flag.ContinueOnError)
	reconcileP := fs.String("reconcile", "", "run report to cross-check the analysis against")
	strict := fs.Bool("strict", false, "exit non-zero on any trace-integrity error")
	src, exit := parseSource(fs, args, stderr)
	if src == "" {
		return exit
	}

	res, err := readSource(src)
	if err != nil {
		return fail(stderr, err)
	}
	printSummary(stdout, res)

	failed := *strict && res.Summary.IntegrityErrors > 0

	// Reconciliation: the trace and the report registry are produced at
	// the same emit sites, so they must agree exactly.
	if *reconcileP != "" {
		f, err := os.Open(*reconcileP)
		if err != nil {
			return fail(stderr, err)
		}
		rep, err := obs.ReadReport(f)
		f.Close()
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", *reconcileP, err))
		}
		problems := analyze.Reconcile(res, rep)
		if len(problems) == 0 {
			fmt.Fprintln(stdout, "\nreconciliation: analysis matches the report registry exactly")
		} else {
			fmt.Fprintln(stdout, "\nreconciliation FAILED:")
			for _, p := range problems {
				fmt.Fprintln(stdout, "  "+p)
			}
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printSummary(w io.Writer, res *analyze.Result) {
	s := res.Summary
	fmt.Fprintf(w, "trace: %d events over %.1f virtual seconds\n",
		s.EventsAnalyzed, float64(res.TraceEnd-res.TraceStart)/1e6)
	fmt.Fprintf(w, "messages: %d  (%d delivered, %d failed, %d in flight)\n",
		s.Messages, s.Delivered, s.Failed, s.MessagesInFlight)
	fmt.Fprintf(w, "journeys: %d  (%d arrived, %d dropped, %d stalled, %d in flight)\n",
		s.Journeys, s.JourneysDelivered, s.JourneysDropped, s.JourneysStalled, s.JourneysInFlight)
	if len(s.DropReasons) > 0 {
		names := make([]string, 0, len(s.DropReasons))
		for name := range s.DropReasons {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "failure reasons:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-16s %d\n", name, s.DropReasons[name])
		}
	}
	if l := s.Latency; l != nil {
		fmt.Fprintf(w, "latency (over %d delivered): mean %.1fms  p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
			l.Count, l.MeanMs, l.P50Ms, l.P90Ms, l.P99Ms)
		fmt.Fprintf(w, "  attribution: %.1fms propagation + %.1fms queueing + %.1fms retry/launch\n",
			l.MeanPropagationMs, l.MeanQueueingMs, l.MeanRetryMs)
	}
	if a := s.Anonymity; a != nil {
		fmt.Fprintf(w, "anonymity (passive observer, %d messages): set size mean %.1f min %d, entropy %.2f bits, linkage %.1f%%\n",
			a.Messages, a.MeanSetSize, a.MinSetSize, a.MeanEntropyBits, a.LinkageRate*100)
	}
	if s.IntegrityErrors == 0 {
		fmt.Fprintln(w, "trace integrity: OK (every causal chain joins)")
	} else {
		fmt.Fprintf(w, "trace integrity: %d ERRORS\n", s.IntegrityErrors)
		for _, d := range s.IntegrityDetails {
			fmt.Fprintln(w, "  "+d)
		}
		if len(s.IntegrityDetails) < s.IntegrityErrors {
			fmt.Fprintf(w, "  ... and %d more\n", s.IntegrityErrors-len(s.IntegrityDetails))
		}
	}
}

func cmdStream(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anontrace stream", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "print only this message id (0: all)")
	src, exit := parseSource(fs, args, stderr)
	if src == "" {
		return exit
	}

	res, err := readSource(src)
	if err != nil {
		return fail(stderr, err)
	}
	printed := 0
	for _, st := range res.Streams {
		if *id != 0 && st.MID != *id {
			continue
		}
		fmt.Fprint(stdout, analyze.FormatStream(st))
		printed++
	}
	if printed == 0 {
		if *id != 0 {
			return fail(stderr, fmt.Errorf("no stream with id %d in %s", *id, src))
		}
		fmt.Fprintln(stdout, "no tagged message streams in trace")
	}
	return 0
}
