package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"resilientmix/internal/cluster"
	"resilientmix/internal/faultinject"
	"resilientmix/internal/livenet"
)

// chaosVerdict is the JSON output of anonctl chaos.
type chaosVerdict struct {
	Nodes          int      `json:"nodes"`
	ScheduleEvents int      `json:"schedule_events"`
	Applied        int      `json:"applied"`
	FaultTraceSHA  string   `json:"fault_trace_sha256"`
	Sent           int      `json:"sent"`
	Delivered      int      `json:"delivered"`
	Lost           int      `json:"lost"`
	PathsDead      uint64   `json:"paths_dead"`
	Repairs        uint64   `json:"repairs"`
	RepairFailures uint64   `json:"repair_failures"` // failed construction attempts: one launch per Build
	Retransmits    uint64   `json:"retransmits"`
	AlivePaths     int      `json:"alive_paths"`
	PathWidth      int      `json:"path_width"`
	Failures       []string `json:"failures,omitempty"`
	OK             bool     `json:"ok"`
}

// cmdChaos spawns a throwaway cluster, opens a repair-enabled
// erasure-coded session through it, plays a fault schedule against the
// fleet (SIGKILL/restart via the runner, partition/latency/drop via
// each node's /debug/fault controller) while pacing real traffic
// across the fault window, and reports whether the session survived:
// zero message loss, every condemned path repaired. With -verify the
// report is a gate (non-zero exit on any failure).
func cmdChaos(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	spawn := fs.Int("spawn", 9, "number of anonnode processes")
	bin := fs.String("bin", "anonnode", "anonnode binary")
	dir := fs.String("dir", "", "cluster directory (default: a temp dir)")
	basePort := fs.Int("base-port", 19400, "first livenet port")
	schedPath := fs.String("schedule", "", "JSONL fault schedule (default: generate one from -seed)")
	seed := fs.Int64("seed", 1, "schedule-generation seed (when no -schedule is given)")
	events := fs.Int("events", 4, "generated schedule: number of faults")
	span := fs.Duration("span", 20*time.Second, "generated schedule: window faults are drawn from")
	msgs := fs.Int("msgs", 12, "messages to pace across the run")
	settle := fs.Duration("settle", 20*time.Second, "post-schedule window for repairs and acks to drain")
	faultsOut := fs.String("faults-out", "", "write the applied-fault trace (JSONL) here")
	verify := fs.Bool("verify", false, "exit non-zero unless zero loss and every dead path repaired")
	asJSON := fs.Bool("json", false, "emit the verdict as JSON")
	fs.Parse(args)

	if *spawn < 4 {
		return fail(fmt.Errorf("chaos needs at least 4 nodes for disjoint paths, got -spawn %d", *spawn))
	}

	// Schedule: load, or draw deterministically from the seed. Generated
	// faults only target relays (node spawn-1 is the responder, the
	// client runs in-process) and always auto-revert, so a default run
	// is a survivable storm, not a demolition.
	var sched faultinject.Schedule
	var err error
	if *schedPath != "" {
		sched, err = faultinject.LoadSchedule(*schedPath, *spawn)
	} else {
		sched, err = faultinject.Generate(*seed, faultinject.GenSpec{
			Nodes:     *spawn - 1,
			AllowZero: true,
			Events:    *events,
			SpanMS:    span.Milliseconds(),
		})
	}
	if err != nil {
		return fail(err)
	}

	m, runner, stop, err := openOrSpawn(*dir, true, *spawn, *bin, *basePort, readyWait)
	if err != nil {
		return fail(err)
	}
	defer stop()
	step(stdout, *asJSON, "cluster of %d ready in %s; %d faults over %s",
		len(m.Nodes), m.Dir, len(sched), time.Duration(sched.End())*time.Millisecond)

	node, relayLists, responder, repl, err := cluster.StartClient(m, nil)
	if err != nil {
		return fail(err)
	}
	defer node.Close()

	// The session under test: full §4.5 resilience — probing, repair
	// through fresh relays, retransmit-until-acked, cover shedding.
	sess, err := node.NewLiveSessionOpts(relayLists, responder, livenet.SessionOptions{
		R:             repl,
		AckTimeout:    2 * time.Second,
		Repair:        true,
		ProbeInterval: 500 * time.Millisecond,
		CoverInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return fail(err)
	}
	defer sess.Teardown()
	width := len(relayLists)
	step(stdout, *asJSON, "session up: %d paths, %d-of-%d erasure code", sess.AlivePaths(), width/repl, width)

	var traceW io.Writer
	if *faultsOut != "" {
		f, err := os.Create(*faultsOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		traceW = f
	}
	rec := faultinject.NewRecorder(traceW)
	applier := &faultinject.LiveApplier{
		Runner: runner,
		Local:  map[int]*livenet.Node{m.Client.ID: node},
		Rec:    rec,
	}
	if !*asJSON {
		applier.Log = func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	}

	window := time.Duration(sched.End()) * time.Millisecond
	if window <= 0 {
		window = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+*settle)
	defer cancel()

	appliedCh := make(chan int, 1)
	go func() {
		n, err := applier.Play(ctx, sched, *spawn)
		if err != nil && !*asJSON {
			fmt.Fprintln(os.Stderr, "chaos: playback:", err)
		}
		appliedCh <- n
	}()

	// Pace the messages across the fault window so sends land mid-fault,
	// then await every verdict: delivered via acks (possibly after
	// retransmission over repaired paths) or lost.
	payload := []byte("anonctl chaos payload")
	interval := window / time.Duration(*msgs)
	verdicts := make([]error, *msgs)
	var wg sync.WaitGroup
	for i := 0; i < *msgs; i++ {
		mid, err := chaosSend(ctx, sess, payload)
		if err != nil {
			verdicts[i] = err
		} else {
			wg.Add(1)
			go func(i int, mid uint64) {
				defer wg.Done()
				verdicts[i] = sess.Await(ctx, mid)
			}(i, mid)
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
		}
	}
	wg.Wait()
	applied := <-appliedCh

	// Let repair finish restoring full path width within the settle
	// budget (the context carries it).
	for sess.AlivePaths() < width && ctx.Err() == nil {
		time.Sleep(100 * time.Millisecond)
	}

	reg := node.Metrics()
	v := &chaosVerdict{
		Nodes:          *spawn,
		ScheduleEvents: len(sched),
		Applied:        applied,
		FaultTraceSHA:  rec.Sum(),
		Sent:           *msgs,
		PathsDead:      reg.Counter("session.paths_dead").Value(),
		Repairs:        reg.Counter("live.repair.repaired").Value(),
		RepairFailures: reg.Counter("live.repair.failed").Value(),
		Retransmits:    reg.Counter("session.retransmits").Value(),
		AlivePaths:     sess.AlivePaths(),
		PathWidth:      width,
	}
	for i, err := range verdicts {
		if err == nil {
			v.Delivered++
		} else {
			v.Lost++
			v.Failures = append(v.Failures, fmt.Sprintf("message %d lost: %v", i, err))
		}
	}
	if expanded := len(sched.Expanded()); applied != expanded {
		v.Failures = append(v.Failures, fmt.Sprintf("applied %d/%d schedule events", applied, expanded))
	}
	if v.PathsDead > 0 && v.Repairs == 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("%d paths condemned but none repaired", v.PathsDead))
	}
	if v.AlivePaths < v.PathWidth {
		v.Failures = append(v.Failures, fmt.Sprintf("only %d/%d paths alive after settle", v.AlivePaths, v.PathWidth))
	}
	v.OK = len(v.Failures) == 0

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	} else {
		fmt.Fprintf(stdout, "\nchaos: %d faults applied (trace sha256 %.16s…)\n", v.Applied, v.FaultTraceSHA)
		fmt.Fprintf(stdout, "traffic: %d sent, %d delivered, %d lost\n", v.Sent, v.Delivered, v.Lost)
		fmt.Fprintf(stdout, "repair: %d paths condemned, %d repaired, %d repair failures, %d retransmits; %d/%d paths alive\n",
			v.PathsDead, v.Repairs, v.RepairFailures, v.Retransmits, v.AlivePaths, v.PathWidth)
		if v.OK {
			fmt.Fprintln(stdout, "chaos: OK — the session survived the schedule with zero loss")
		} else {
			fmt.Fprintln(stdout, "chaos: FAILED")
			for _, f := range v.Failures {
				fmt.Fprintf(stdout, "  - %s\n", f)
			}
		}
	}
	if *verify && !v.OK {
		return 1
	}
	return 0
}

// chaosSend submits one message, retrying while the session has no
// sendable path or its in-flight queue is full (both are expected
// mid-fault; repair and ack drain clear them).
func chaosSend(ctx context.Context, sess *livenet.LiveSession, payload []byte) (uint64, error) {
	for {
		mid, err := sess.Send(append([]byte(nil), payload...))
		if err == nil {
			return mid, nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("send never accepted: %w (last: %v)", ctx.Err(), err)
		case <-time.After(250 * time.Millisecond):
		}
	}
}
