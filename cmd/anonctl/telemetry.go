// Continuous-telemetry subcommands: record (poll a cluster into an
// embedded time-series file), watch (live dashboard over the same
// recorder) and replay (render a recorded run offline).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"resilientmix/internal/cluster"
	"resilientmix/internal/obs/rules"
	"resilientmix/internal/obs/tsdb"
)

// runCtx is interrupted by SIGINT and, when forDur > 0, by a deadline.
func runCtx(forDur time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	if forDur <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeout(ctx, forDur)
	return tctx, func() { tcancel(); cancel() }
}

// cmdRecord polls every node on an interval into an embedded
// time-series store, streaming samples and fired alerts to the output
// file, until interrupted or -for elapses. With -verify it then replays
// the file and fails unless the replayed dashboard is byte-identical to
// the live one and no alerts fired.
func cmdRecord(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (default with -spawn: a temp dir)")
	out := fs.String("out", "telemetry.tsdb.gz", "output time-series file (.gz for gzip)")
	interval := fs.Duration("interval", time.Second, "poll interval")
	forDur := fs.Duration("for", 0, "record for this long (0: until interrupted)")
	spawn := fs.Bool("spawn", false, "spawn a throwaway cluster instead of attaching to one")
	n := fs.Int("n", 2, "nodes to spawn with -spawn")
	bin := fs.String("bin", "anonnode", "anonnode binary for -spawn")
	basePort := fs.Int("base-port", 19400, "first livenet port for -spawn")
	verify := fs.Bool("verify", false, "after recording, verify replay fidelity and fail if any alert fired")
	fs.Parse(args)

	m, _, stop, err := openOrSpawn(*dir, *spawn, *n, *bin, *basePort, readyWait)
	if err != nil {
		return fail(err)
	}
	defer stop()
	rec, err := cluster.NewRecorder(m, cluster.RecorderConfig{Interval: *interval, Out: *out})
	if err != nil {
		return fail(err)
	}
	defer rec.Close()
	fmt.Fprintf(stdout, "recording %d nodes every %s into %s\n", len(m.Nodes), *interval, *out)

	ctx, cancel := runCtx(*forDur)
	defer cancel()
	rec.Run(ctx, func(at time.Time, fired []rules.Alert) {
		for _, a := range fired {
			fmt.Fprintf(os.Stderr, "alert [%s] %s: %s\n", at.Format(time.TimeOnly), a.Rule, a.Detail)
		}
	})

	alerts := rec.Alerts()
	fmt.Fprintf(stdout, "recorded %d ticks, %d alerts\n", rec.Ticks(), len(alerts))
	if !*verify {
		return 0
	}
	if err := rec.VerifyRoundTrip(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "verify: replayed dashboard is byte-identical to live")
	if len(alerts) > 0 {
		fmt.Fprintf(os.Stderr, "verify: %d alerts fired on a run expected clean:\n", len(alerts))
		for _, a := range alerts {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", a.Rule, a.Detail)
		}
		return 1
	}
	fmt.Fprintln(stdout, "verify: no alerts fired")
	return 0
}

// cmdWatch renders the live telemetry dashboard — per-node sparklines,
// cluster rollups and firing alerts — refreshed on every poll, with
// optional recording to a file at the same time.
func cmdWatch(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	dir := fs.String("dir", "cluster", "cluster directory")
	interval := fs.Duration("interval", time.Second, "poll interval")
	forDur := fs.Duration("for", 0, "watch for this long (0: until interrupted)")
	out := fs.String("out", "", "also stream the run to this time-series file")
	fs.Parse(args)

	m, err := cluster.LoadManifest(*dir)
	if err != nil {
		return fail(err)
	}
	rec, err := cluster.NewRecorder(m, cluster.RecorderConfig{Interval: *interval, Out: *out})
	if err != nil {
		return fail(err)
	}
	defer rec.Close()

	ctx, cancel := runCtx(*forDur)
	defer cancel()
	rec.Run(ctx, func(time.Time, []rules.Alert) {
		fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		cluster.RenderWatch(stdout, rec.DB())
	})
	fmt.Fprintf(stdout, "\nwatched %d ticks, %d alerts\n", rec.Ticks(), len(rec.Alerts()))
	return 0
}

// cmdReplay loads a recorded run and renders its final dashboard
// frame — byte-identical to what watch showed live at the end of the
// recording.
func cmdReplay(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "recorded time-series file (required)")
	fs.Parse(args)
	if *in == "" {
		return fail(fmt.Errorf("replay needs -in FILE"))
	}
	db, err := tsdb.ReadFile(*in)
	if err != nil {
		return fail(err)
	}
	cluster.RenderWatch(stdout, db)
	return 0
}
