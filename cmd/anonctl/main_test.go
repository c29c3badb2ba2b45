package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"resilientmix/internal/cluster"
	"resilientmix/internal/obs"
	"resilientmix/internal/obs/analyze"
	"resilientmix/internal/obs/tsdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fakeNodeEnv, when set, turns this test binary into a stand-in for
// anonnode (see fakeNode); its value is the directory the stand-in
// leaves its pid in. The tests pass the binary as -bin, and the
// children the runner spawns inherit the variable.
const fakeNodeEnv = "ANONCTL_TEST_FAKE_NODE"

func TestMain(m *testing.M) {
	if dir := os.Getenv(fakeNodeEnv); dir != "" {
		fakeNode(dir)
	}
	os.Exit(m.Run())
}

// fakeNode is a node that comes up but is broken: it answers /readyz,
// serves a /metrics no Prometheus parser accepts, listens on no livenet
// port, and dies on the runner's interrupt like any process.
func fakeNode(pidDir string) {
	fs := flag.NewFlagSet("fakenode", flag.ExitOnError)
	id := fs.Int("id", 0, "")
	debug := fs.String("debug", "", "")
	for _, name := range []string{"roster", "key", "listen"} {
		fs.String(name, "", "")
	}
	fs.Bool("collector", false, "")
	fs.Parse(os.Args[1:])
	pid := []byte(strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(filepath.Join(pidDir, fmt.Sprintf("node%d.pid", *id)), pid, 0o644); err != nil {
		panic(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ready\n")) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("this is not prometheus\n")) })
	panic(http.ListenAndServe(*debug, mux))
}

// freeBasePort picks a livenet base port whose debug twin (+100) is in
// range; the fleet's handful of consecutive ports are assumed free too.
func freeBasePort(t *testing.T) string {
	t.Helper()
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if port+200 < 65536 {
			return strconv.Itoa(port)
		}
	}
}

// TestFailingGateStopsFleet is the regression test for gates that left
// through os.Exit below their `defer stop()`: whichever way a
// subcommand fails after spawning a fleet — a verdict (record -verify
// with alerts fired) or an error mid-run (smoke and chaos cannot build
// a session through nodes with no livenet listener) — every child must
// have exited and the temp cluster directory must be gone when it
// returns.
func TestFailingGateStopsFleet(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		nodes int
		args  []string
	}{
		{"record -verify with alerts", 2, []string{"record", "-spawn", "-n", "2", "-for", "1200ms", "-interval", "300ms", "-verify"}},
		{"smoke whose traffic fails", 5, []string{"smoke", "-n", "5", "-msgs", "1", "-capture", "1ms"}},
		{"chaos whose session fails", 4, []string{"chaos", "-spawn", "4", "-msgs", "1", "-verify"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pids, tmp := t.TempDir(), t.TempDir()
			t.Setenv(fakeNodeEnv, pids)
			t.Setenv("TMPDIR", tmp) // where openOrSpawn's MkdirTemp lands
			args := append(tc.args, "-bin", self, "-base-port", freeBasePort(t))
			if tc.args[0] == "record" {
				args = append(args, "-out", filepath.Join(t.TempDir(), "run.tsdb"))
			}
			var out bytes.Buffer
			if code := run(args, &out); code != 1 {
				t.Fatalf("exit code %d, want 1; stdout:\n%s", code, out.String())
			}

			files, err := filepath.Glob(filepath.Join(pids, "node*.pid"))
			if err != nil || len(files) != tc.nodes {
				t.Fatalf("%d fake nodes left a pid, want %d (%v)", len(files), tc.nodes, err)
			}
			for _, f := range files {
				blob, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				pid, err := strconv.Atoi(string(blob))
				if err != nil {
					t.Fatal(err)
				}
				if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
					syscall.Kill(pid, syscall.SIGKILL)
					t.Errorf("%s: process %d outlived the failed gate (signal 0: %v)", filepath.Base(f), pid, err)
				}
			}
			if left, _ := os.ReadDir(tmp); len(left) != 0 {
				t.Errorf("temp cluster directory left behind: %v", left)
			}
		})
	}
}

// statusFleet serves a three-node fleet from httptest servers — node 0
// healthy and carrying traffic, node 1 alive but failing /readyz, node
// 2 gone — and returns the cluster directory describing it.
func statusFleet(t *testing.T) string {
	t.Helper()
	serve := func(reg *obs.Registry, ready bool) string {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.PrometheusHandler())
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			if !ready {
				http.Error(w, "not ready: degraded", http.StatusServiceUnavailable)
			}
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return strings.TrimPrefix(srv.URL, "http://")
	}
	busy := obs.NewRegistry()
	busy.Counter("live.frames_out").Add(42)
	busy.Counter("live.frames_in.data").Add(40)
	busy.Counter("live.peer_out.1").Add(30)
	busy.Counter("live.peer_out.2").Add(12)
	busy.Counter("session.messages_sent").Add(3)
	busy.Counter("session.segments_sent").Add(12)
	busy.Counter("session.segments_acked").Add(11)
	busy.Gauge("live.forward_states").Set(2)
	busy.Gauge("runtime.goroutines").Set(17)
	busy.Gauge("runtime.heap_inuse_bytes").Set(3 << 20)
	unready := obs.NewRegistry()
	unready.Counter("live.frames_out").Add(5)
	unready.Counter("recv.delivered").Add(3)
	gone := httptest.NewServer(http.NotFoundHandler())
	goneAddr := strings.TrimPrefix(gone.URL, "http://")
	gone.Close()

	dir := t.TempDir()
	blob, err := json.Marshal(cluster.Manifest{Nodes: []cluster.ManifestNode{
		{ID: 0, Debug: serve(busy, true)},
		{ID: 1, Debug: serve(unready, false)},
		{ID: 2, Debug: goneAddr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cluster.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// golden compares got with testdata/<name>, rewriting it under
// -update-golden.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// runOK runs one subcommand that must succeed and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("anonctl %v: exit code %d; stdout:\n%s", args, code, out.String())
	}
	return out.String()
}

// TestStatusGolden pins `anonctl status`: one recorder tick through
// the watch dashboard, with the down and the unready node visible.
func TestStatusGolden(t *testing.T) {
	golden(t, "status.golden", runOK(t, "status", "-dir", statusFleet(t)))
}

// TestStatusJSONGolden pins `status -json` — the tick in tsdb's JSONL
// encoding, wall-clock stamps aside — and that it is a recording:
// `replay -in` renders it to exactly what `status` printed.
func TestStatusJSONGolden(t *testing.T) {
	dir := statusFleet(t)
	dump := runOK(t, "status", "-dir", dir, "-json")
	golden(t, "status.json.golden", regexp.MustCompile(`"at":\d+`).ReplaceAllString(dump, `"at":0`))

	path := filepath.Join(t.TempDir(), "tick.tsdb")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	if replayed, live := runOK(t, "replay", "-in", path), runOK(t, "status", "-dir", dir); replayed != live {
		t.Errorf("replaying status -json differs from status:\n--- replay ---\n%s--- status ---\n%s", replayed, live)
	}
}

// TestReplayGolden pins `anonctl replay` over a committed recording: a
// two-node fleet, six one-second ticks, node 1 dying at t=3s and the
// node-down alert stored in the run.
func TestReplayGolden(t *testing.T) {
	golden(t, "replay.golden", runOK(t, "replay", "-in", filepath.Join("testdata", "run.tsdb")))
}

// TestFleetTotalsReconcile: the counters smoke builds from a recorded
// store — each node's latest sample, summed, under the registry's
// names — reconcile against the analysis of the matching trace, and a
// counter no node reported is reported missing instead of read as 0.
func TestFleetTotalsReconcile(t *testing.T) {
	db := tsdb.New(8)
	for i, at := range []int64{1e6, 2e6} {
		tsdb.SampleSnapshot(db, at, tsdb.L("node", "0"), obs.Snapshot{Counters: map[string]uint64{
			"session.segments_sent": uint64(1 + i), "session.messages_sent": 1, "live.frames_out": 30,
		}})
		tsdb.SampleSnapshot(db, at, tsdb.L("node", "1"), obs.Snapshot{Counters: map[string]uint64{
			"recv.delivered": uint64(i), "live.frames_out": 12,
		}})
	}
	totals := fleetTotals(db)
	want := map[string]uint64{"session.segments_sent": 2, "session.messages_sent": 1, "recv.delivered": 1}
	if fmt.Sprint(totals) != fmt.Sprint(want) {
		t.Fatalf("totals = %v, want %v", totals, want)
	}
	res := analyze.FromEvents([]obs.Event{
		{Type: obs.SegmentSent, At: 1, Node: 0, Peer: 1, ID: 10, Seq: 0, Slot: 0, Hop: -1},
		{Type: obs.SegmentSent, At: 2, Node: 0, Peer: 1, ID: 10, Seq: 1, Slot: 1, Hop: -1},
		{Type: obs.SegmentReconstructed, At: 3, Node: 1, Peer: -1, ID: 10, Seq: 2, Slot: -1, Hop: -1},
	})
	report := func(c map[string]uint64) *obs.Report { return &obs.Report{Metrics: &obs.Snapshot{Counters: c}} }
	if diags := analyze.Reconcile(res, report(totals)); len(diags) != 0 {
		t.Fatalf("fleet totals do not reconcile: %v", diags)
	}
	if diags := analyze.Reconcile(res, report(fleetTotals(tsdb.New(8)))); len(diags) != 2 {
		t.Fatalf("an unsampled fleet reconciled: %v", diags)
	}
}
