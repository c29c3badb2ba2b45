// Command anonctl operates a local anonnode cluster and observes it as
// a whole: it generates the key/roster bundle, spawns the processes,
// polls every node into an embedded time-series store, evaluates the
// standing alert rules on it (node down, not ready, silent relays,
// segment loss, repair spikes, ...), renders a terminal dashboard,
// drives erasure-coded session traffic through the cluster, and
// captures merged live traces consumable by anontrace. Every view of
// the fleet — status, smoke, record, watch — is the same pipeline:
// cluster.Recorder → tsdb → rules.Defaults() → cluster.RenderWatch.
//
// Subcommands:
//
//	anonctl up     -dir d -n 5 -bin ./anonnode     spawn a cluster, run until interrupted
//	anonctl status -dir d [-json]                  one poll: dashboard, or the tick as a
//	                                               tsdb recording (what replay -in reads)
//	anonctl traffic -dir d -msgs 8                 drive session traffic in-process
//	anonctl smoke  -n 5 -msgs 8 -bin ./anonnode    full pipeline: spawn, trace, record,
//	               [-trace live.jsonl] [-json]     traffic, reconcile, verdict
//	anonctl record -dir d -out run.tsdb.gz         continuous telemetry: poll every node into
//	               [-spawn -n 2 -bin ./anonnode]   an embedded time-series store, evaluate
//	               [-for 10s] [-verify]            alert rules, stream samples to disk
//	anonctl watch  -dir d [-interval 1s]           live dashboard: sparklines, rollups,
//	               [-out run.tsdb.gz]              firing alerts; optionally record too
//	anonctl replay -in run.tsdb.gz                 render a recorded run's final frame
//	anonctl chaos  -spawn 9 -bin ./anonnode        spawn a fleet, play a fault schedule
//	               [-schedule f.jsonl | -seed 1]   (crash/partition/latency/drop) against
//	               [-msgs 12] [-verify] [-json]    it while driving repair-enabled traffic;
//	                                               -verify gates on zero loss + full repair
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"time"

	"resilientmix/internal/cluster"
	"resilientmix/internal/obs"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/obs/rules"
	"resilientmix/internal/obs/tsdb"
)

// main holds the process's only os.Exit: every subcommand returns its
// exit code, so a failing gate still runs the deferred cleanup that
// stops the fleet it spawned.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run dispatches one subcommand; stdout takes what it reports.
func run(args []string, stdout io.Writer) int {
	cmds := map[string]func([]string, io.Writer) int{
		"up":      cmdUp,
		"status":  cmdStatus,
		"traffic": cmdTraffic,
		"smoke":   cmdSmoke,
		"record":  cmdRecord,
		"watch":   cmdWatch,
		"replay":  cmdReplay,
		"chaos":   cmdChaos,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: anonctl <up|status|traffic|smoke|record|watch|replay|chaos> [flags]")
		return 2
	}
	return cmds[args[0]](args[1:], stdout)
}

// fail reports an error that ends a subcommand and returns its exit
// code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "anonctl:", err)
	return 1
}

// readyWait bounds how long a spawned fleet may take to answer /readyz.
const readyWait = 30 * time.Second

// openOrSpawn is the one way anonctl gets a fleet. Without spawn it
// loads the manifest at dir and attaches. With spawn it starts one —
// the cluster dir already holds if there is one (so `up` restarts a
// fleet under its keys; n and basePort are then ignored), else a fresh
// bundle of n nodes written there, in a temp dir when dir is empty —
// and waits up to wait for every node's /readyz. stop is never nil: it
// stops the spawned processes (runner, nil when attached) and removes
// the temp dir.
func openOrSpawn(dir string, spawn bool, n int, bin string, basePort int, wait time.Duration) (cluster.Manifest, *cluster.Runner, func(), error) {
	none := func() {}
	if !spawn {
		m, err := cluster.LoadManifest(dir)
		return m, nil, none, err
	}
	cleanup := none
	if dir == "" {
		tmp, err := os.MkdirTemp("", "anonctl-*")
		if err != nil {
			return cluster.Manifest{}, nil, none, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	m, err := cluster.LoadManifest(dir)
	if err != nil {
		m, err = cluster.Generate(dir, cluster.Spec{Nodes: n, Client: true, BasePort: basePort})
	}
	if err != nil {
		cleanup()
		return cluster.Manifest{}, nil, none, err
	}
	r, err := m.Start(bin)
	if err != nil {
		cleanup()
		return cluster.Manifest{}, nil, none, err
	}
	stop := func() { r.Stop(); cleanup() }
	if err := r.WaitReady(wait); err != nil {
		stop()
		return cluster.Manifest{}, nil, none, err
	}
	return m, r, stop, nil
}

// cmdUp spawns the cluster in -dir (generating it first unless the
// directory already holds one), then runs until interrupted.
func cmdUp(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("up", flag.ExitOnError)
	dir := fs.String("dir", "cluster", "cluster directory")
	n := fs.Int("n", 5, "number of nodes (ignored when the directory already holds a cluster)")
	bin := fs.String("bin", "anonnode", "anonnode binary")
	basePort := fs.Int("base-port", 19000, "first livenet port")
	wait := fs.Duration("wait", readyWait, "readiness timeout")
	fs.Parse(args)

	m, _, stop, err := openOrSpawn(*dir, true, *n, *bin, *basePort, *wait)
	if err != nil {
		return fail(err)
	}
	defer stop()
	fmt.Fprintf(stdout, "cluster up: %d nodes ready in %s\n", len(m.Nodes), m.Dir)
	for _, nd := range m.Nodes {
		fmt.Fprintf(stdout, "  node %d: %s  metrics http://%s/metrics\n", nd.ID, nd.Addr, nd.Debug)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintln(stdout, "stopping cluster")
	return 0
}

// cmdStatus polls the cluster once and renders the tick with the watch
// dashboard (rates need two ticks and read 0; the cumulative columns
// and the up/ready probes are already meaningful). For a refreshing
// view with rate-based alerts use `anonctl watch`.
func cmdStatus(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "cluster", "cluster directory")
	asJSON := fs.Bool("json", false, "emit the tick as a tsdb recording (JSONL, the format `replay -in` reads)")
	fs.Parse(args)

	m, err := cluster.LoadManifest(*dir)
	if err != nil {
		return fail(err)
	}
	rec, err := cluster.NewRecorder(m, cluster.RecorderConfig{})
	if err != nil {
		return fail(err)
	}
	rec.Sample(time.Now())
	if !*asJSON {
		cluster.RenderWatch(stdout, rec.DB())
		return 0
	}
	// tsdb encodes to files; stage the dump and copy it out.
	tmp, err := os.CreateTemp("", "anonctl-status-*.tsdb")
	if err != nil {
		return fail(err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	if err := rec.DB().WriteFile(tmp.Name()); err != nil {
		return fail(err)
	}
	blob, err := os.ReadFile(tmp.Name())
	if err != nil {
		return fail(err)
	}
	stdout.Write(blob)
	return 0
}

// cmdTraffic drives erasure-coded session traffic through a running
// cluster from an in-process client.
func cmdTraffic(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("traffic", flag.ExitOnError)
	dir := fs.String("dir", "cluster", "cluster directory")
	msgs := fs.Int("msgs", 8, "messages to send")
	ackWait := fs.Duration("ack-wait", 5*time.Second, "how long to wait for segment acks")
	fs.Parse(args)

	m, err := cluster.LoadManifest(*dir)
	if err != nil {
		return fail(err)
	}
	res, err := cluster.RunTraffic(m, *msgs, []byte("anonctl traffic"), *ackWait)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "sent %d messages over %d paths: %d/%d segments acked\n",
		res.Sent, res.Paths, res.SegmentsAcked, res.SegmentsSent)
	if res.SegmentsAcked < res.SegmentsSent {
		return 1
	}
	return 0
}

// smokeVerdict is the JSON output of anonctl smoke.
type smokeVerdict struct {
	Nodes   int                    `json:"nodes"`
	Traffic *cluster.TrafficResult `json:"traffic"`
	// Totals are the fleet-wide counters the trace analysis is
	// reconciled against (see fleetTotals).
	Totals    map[string]uint64 `json:"totals"`
	Alerts    []rules.Alert     `json:"alerts,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Analysis  analyze.Summary   `json:"analysis"`
	Reconcile []string          `json:"reconcile,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	OK        bool              `json:"ok"`
}

// fleetTotals builds the counters analyze.Reconcile checks a trace
// against by summing each node's latest sample in a recorded store,
// under the registry's dotted names. A counter no node reported stays
// absent, so Reconcile still says which one the fleet lacks.
func fleetTotals(db *tsdb.DB) map[string]uint64 {
	totals := make(map[string]uint64)
	for _, name := range []string{"session.segments_sent", "recv.delivered", "session.messages_sent"} {
		for _, s := range db.ByName(obs.SanitizePromName(name)) {
			if p, ok := s.Latest(); ok {
				totals[name] += uint64(p.V)
			}
		}
	}
	return totals
}

// cmdSmoke runs the full observability pipeline against a throwaway
// cluster and fails unless everything reconciles: spawn N nodes,
// stream /debug/trace from each, record the fleet while erasure-coded
// traffic flows, merge the live traces, run trace analytics over them,
// cross-check the analysis against the recorded counters, and require
// that no standing alert rule fired.
func cmdSmoke(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	n := fs.Int("n", 5, "number of nodes")
	msgs := fs.Int("msgs", 8, "messages to send")
	bin := fs.String("bin", "anonnode", "anonnode binary")
	dir := fs.String("dir", "", "cluster directory (default: a temp dir)")
	basePort := fs.Int("base-port", 19200, "first livenet port")
	tracePath := fs.String("trace", "", "write the merged live trace here (JSONL, .gz ok)")
	capture := fs.Duration("capture", 8*time.Second, "per-node /debug/trace capture window")
	asJSON := fs.Bool("json", false, "emit the verdict as JSON")
	fs.Parse(args)

	m, _, stop, err := openOrSpawn(*dir, true, *n, *bin, *basePort, readyWait)
	if err != nil {
		return fail(err)
	}
	defer stop()
	step(stdout, *asJSON, "cluster of %d ready in %s", len(m.Nodes), m.Dir)

	// Start a bounded trace capture on every node, then give the
	// streams a beat to attach before traffic flows.
	type capResult struct {
		id     int
		events []obs.Event
		err    error
	}
	caps := make(chan capResult, len(m.Nodes))
	for _, nd := range m.Nodes {
		go func(id int, debug string) {
			evs, err := cluster.CaptureTrace(debug, *capture)
			caps <- capResult{id, evs, err}
		}(nd.ID, nd.Debug)
	}
	time.Sleep(500 * time.Millisecond)

	v := &smokeVerdict{Nodes: len(m.Nodes)}
	failf := func(format string, args ...any) { v.Failures = append(v.Failures, fmt.Sprintf(format, args...)) }

	// Record the fleet from before the traffic until the trace captures
	// end, so the alert rules see it carry the traffic and settle.
	rec, err := cluster.NewRecorder(m, cluster.RecorderConfig{Interval: 500 * time.Millisecond})
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	polled := make(chan struct{})
	go func() {
		rec.Run(ctx, nil)
		close(polled)
	}()
	stopRecording := func() {
		cancel()
		<-polled
	}
	defer stopRecording()
	traffic, err := cluster.RunTraffic(m, *msgs, []byte("anonctl smoke payload"), 5*time.Second)
	if err != nil {
		return fail(err)
	}
	v.Traffic = traffic
	step(stdout, *asJSON, "traffic done: %d messages, %d/%d segments acked",
		traffic.Sent, traffic.SegmentsAcked, traffic.SegmentsSent)

	// Collect the trace captures (they run their full window).
	traces := [][]obs.Event{traffic.Events}
	for range m.Nodes {
		c := <-caps
		if c.err != nil {
			failf("trace capture node %d: %v", c.id, c.err)
			continue
		}
		traces = append(traces, c.events)
	}
	merged := cluster.MergeTraces(traces...)
	if *tracePath != "" {
		if err := cluster.WriteTrace(*tracePath, merged); err != nil {
			return fail(err)
		}
		v.TraceFile = *tracePath
	}
	step(stdout, *asJSON, "merged live trace: %d events from %d sources", len(merged), len(traces))

	// The in-process client is no manifest node, so no poll saw it: its
	// registry joins the store as one more node (up by definition),
	// then a last tick evaluates the rules with the client present.
	stopRecording()
	at := time.Now()
	client := tsdb.L("node", strconv.Itoa(m.Client.ID))
	tsdb.SampleSnapshot(rec.DB(), at.UnixMicro(), client, traffic.Client)
	rec.DB().Append("up", client, at.UnixMicro(), 1)
	rec.Sample(at)
	v.Totals = fleetTotals(rec.DB())
	v.Alerts = rec.Alerts()

	// Analytics over the merged live trace, cross-checked against the
	// recorded fleet counters — the same reconciliation contract
	// simulator runs are held to.
	res := analyze.FromEvents(merged)
	v.Analysis = res.Summary
	v.Reconcile = analyze.Reconcile(res, &obs.Report{
		Name:    "anonctl",
		Metrics: &obs.Snapshot{Counters: v.Totals},
	})

	if traffic.SegmentsAcked < traffic.SegmentsSent {
		failf("only %d/%d segments acked", traffic.SegmentsAcked, traffic.SegmentsSent)
	}
	if got := v.Totals["recv.delivered"]; got != uint64(*msgs) {
		failf("cluster-wide recv.delivered = %d, want %d", got, *msgs)
	}
	if res.Summary.Delivered != *msgs {
		failf("trace analysis delivered = %d, want %d", res.Summary.Delivered, *msgs)
	}
	if res.Summary.IntegrityErrors != 0 {
		failf("%d trace integrity errors: %v", res.Summary.IntegrityErrors, res.Summary.IntegrityDetails)
	}
	for _, diag := range v.Reconcile {
		failf("reconcile: %s", diag)
	}
	for _, a := range v.Alerts {
		failf("alert: %s: %s", a.Rule, a.Detail)
	}
	v.OK = len(v.Failures) == 0

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	} else {
		cluster.RenderWatch(stdout, rec.DB())
		fmt.Fprintf(stdout, "\nanalysis: %d events, %d messages, %d delivered, %d journeys\n",
			res.Summary.EventsAnalyzed, res.Summary.Messages, res.Summary.Delivered, res.Summary.Journeys)
		if v.OK {
			fmt.Fprintln(stdout, "smoke: OK — counters, probes, alert rules, live trace and analytics all reconcile")
		} else {
			fmt.Fprintln(stdout, "smoke: FAILED")
			for _, f := range v.Failures {
				fmt.Fprintf(stdout, "  - %s\n", f)
			}
		}
	}
	if !v.OK {
		return 1
	}
	return 0
}

// step prints progress lines in human mode only (JSON mode keeps
// stdout machine-parseable).
func step(stdout io.Writer, asJSON bool, format string, args ...any) {
	if !asJSON {
		fmt.Fprintf(stdout, format+"\n", args...)
	}
}
