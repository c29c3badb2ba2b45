// The profile subcommand: cluster-wide continuous profiling. It
// harvests CPU and heap profiles from every node's /debug/pprof
// concurrently (driving session traffic through the cluster while the
// CPU windows run, so the data plane is actually hot), merges them
// into one cluster profile, attributes cost to the repo's subsystem
// buckets (onioncrypt, erasure, wire, livenet, ...) and renders a text
// report. With -baseline it exits non-zero when any bucket's share
// drifted past tolerance — the CI regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"resilientmix/internal/cluster"
	"resilientmix/internal/obs/prof"
)

// profileVerdict is the JSON output of anonctl profile.
type profileVerdict struct {
	Nodes int `json:"nodes"`
	// CPU / Alloc carry the merged attributions (nil when that harvest
	// failed everywhere).
	CPU   *prof.Attribution `json:"cpu,omitempty"`
	Alloc *prof.Attribution `json:"alloc,omitempty"`
	// TrafficMsgs counts messages driven through the cluster during
	// the CPU capture window.
	TrafficMsgs int      `json:"traffic_msgs"`
	Failures    []string `json:"failures,omitempty"`
	OK          bool     `json:"ok"`
}

func cmdProfile(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (default with -spawn: a temp dir)")
	spawn := fs.Bool("spawn", false, "spawn a throwaway cluster instead of attaching to one")
	n := fs.Int("n", 5, "nodes to spawn with -spawn")
	bin := fs.String("bin", "anonnode", "anonnode binary for -spawn")
	basePort := fs.Int("base-port", 19600, "first livenet port for -spawn")
	seconds := fs.Int("seconds", 5, "per-node CPU capture window")
	msgs := fs.Int("msgs", 8, "messages per traffic round during the CPU window (0: no traffic)")
	topN := fs.Int("top", 10, "functions in each top-N table")
	out := fs.String("out", "", "write merged profiles to <out>.cpu.pb.gz and <out>.heap.pb.gz")
	baseline := fs.String("baseline", "", "diff attribution shares against this baseline JSON; exit non-zero on drift")
	writeBase := fs.String("write-baseline", "", "write the measured attribution shares to this baseline file")
	tolerance := fs.Float64("tolerance", 0, "share drift allowed by -baseline (0: the file's own, else 0.15)")
	require := fs.String("require", "", "comma-separated buckets that must be non-empty in the CPU or alloc attribution")
	asJSON := fs.Bool("json", false, "emit the verdict as JSON")
	fs.Parse(args)
	if *seconds < 1 {
		return fail(fmt.Errorf("profile: -seconds must be >= 1"))
	}

	m, _, stop, err := openOrSpawn(*dir, *spawn, *n, *bin, *basePort, readyWait)
	if err != nil {
		return fail(err)
	}
	defer stop()

	v := &profileVerdict{Nodes: len(m.Nodes)}
	failf := func(format string, args ...any) { v.Failures = append(v.Failures, fmt.Sprintf(format, args...)) }

	// CPU harvest first: the server-side windows all run concurrently,
	// and traffic flows while they sample so the report shows the data
	// plane, not an idle event loop.
	window := time.Duration(*seconds) * time.Second
	step(stdout, *asJSON, "harvesting %ds CPU profiles from %d nodes", *seconds, len(m.Nodes))
	cpuCh := make(chan cluster.Harvest, 1)
	go func() {
		cpuCh <- cluster.HarvestProfiles(m, fmt.Sprintf("profile?seconds=%d", *seconds), window)
	}()
	if *msgs > 0 {
		if m.Client == nil {
			failf("manifest has no client identity; cannot drive traffic (rerun with -msgs 0 to accept an idle profile)")
		} else {
			deadline := time.Now().Add(window)
			for time.Now().Before(deadline) {
				res, err := cluster.RunTraffic(m, *msgs, []byte("anonctl profile payload"), 5*time.Second)
				if err != nil {
					failf("traffic during capture: %v", err)
					break
				}
				v.TrafficMsgs += res.Sent
			}
			step(stdout, *asJSON, "drove %d messages during the capture window", v.TrafficMsgs)
		}
	}
	cpu := <-cpuCh
	for id, err := range cpu.Errs {
		failf("cpu harvest node %d: %v", id, err)
	}

	// Heap is instantaneous; alloc_space is cumulative since process
	// start, so it reflects the traffic just driven regardless of when
	// this snapshot lands.
	heap := cluster.HarvestProfiles(m, "heap", 0)
	for id, err := range heap.Errs {
		failf("heap harvest node %d: %v", id, err)
	}

	buckets := prof.DefaultBuckets()
	if cpu.Merged != nil {
		if i := cpu.Merged.SampleIndex("cpu"); i >= 0 {
			a := prof.Attribute(cpu.Merged, i, buckets)
			v.CPU = &a
			if !*asJSON {
				prof.WriteReport(stdout, fmt.Sprintf("cpu (merged from %d nodes)", cpu.Nodes), cpu.Merged, i, buckets, *topN)
			}
		}
	}
	if heap.Merged != nil {
		if i := heap.Merged.SampleIndex("alloc_space"); i >= 0 {
			a := prof.Attribute(heap.Merged, i, buckets)
			v.Alloc = &a
			if !*asJSON {
				prof.WriteReport(stdout, fmt.Sprintf("alloc_space (merged from %d nodes)", heap.Nodes), heap.Merged, i, buckets, *topN)
			}
		}
	}
	if v.CPU == nil && v.Alloc == nil {
		failf("no profile harvested from any node")
	}

	if *out != "" {
		if cpu.Merged != nil {
			if err := cpu.Merged.WriteFile(*out + ".cpu.pb.gz"); err != nil {
				return fail(err)
			}
		}
		if heap.Merged != nil {
			if err := heap.Merged.WriteFile(*out + ".heap.pb.gz"); err != nil {
				return fail(err)
			}
		}
		step(stdout, *asJSON, "merged profiles written to %s.{cpu,heap}.pb.gz", *out)
	}

	// -require: named buckets must show up in at least one dimension.
	// CPU samples can be sparse in short idle windows; cumulative
	// alloc_space is the reliable witness in CI smokes.
	for _, name := range splitBuckets(*require) {
		var cpuV, allocV int64
		if v.CPU != nil {
			cpuV = v.CPU.Buckets[name]
		}
		if v.Alloc != nil {
			allocV = v.Alloc.Buckets[name]
		}
		if cpuV == 0 && allocV == 0 {
			failf("required bucket %s is empty in both cpu and alloc attribution", name)
		}
	}

	shares := map[string]prof.Baseline{}
	if v.CPU != nil {
		shares["cpu"] = prof.Baseline{Buckets: v.CPU.Shares()}
	}
	if v.Alloc != nil {
		shares["alloc_space"] = prof.Baseline{Buckets: v.Alloc.Shares()}
	}
	if *writeBase != "" {
		if err := prof.WriteBaseline(*writeBase, prof.BaselineFile{Tolerance: *tolerance, Profiles: shares}); err != nil {
			return fail(err)
		}
		step(stdout, *asJSON, "baseline written to %s", *writeBase)
	}
	if *baseline != "" {
		bf, err := prof.ReadBaseline(*baseline)
		if err != nil {
			return fail(err)
		}
		tol := *tolerance
		if tol <= 0 {
			tol = bf.Tolerance
		}
		for name, base := range bf.Profiles {
			cur, ok := shares[name]
			if !ok {
				failf("baseline dimension %s was not measured", name)
				continue
			}
			for _, diag := range prof.DiffBaseline(name, cur.Buckets, base, tol) {
				failf("baseline drift: %s", diag)
			}
		}
		if len(v.Failures) == 0 {
			step(stdout, *asJSON, "attribution within tolerance of %s", *baseline)
		}
	}

	v.OK = len(v.Failures) == 0
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	} else if !v.OK {
		fmt.Fprintln(stdout, "profile: FAILED")
		for _, f := range v.Failures {
			fmt.Fprintf(stdout, "  - %s\n", f)
		}
	}
	if !v.OK {
		return 1
	}
	return 0
}

// splitBuckets parses the -require list.
func splitBuckets(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
