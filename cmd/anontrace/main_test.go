package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rm "resilientmix"

	"resilientmix/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// writeScenario runs a small fixed scenario through the facade — 32
// nodes, 2 % link loss, one self-repairing SimEra(4,2) session sending
// twelve 1 KB messages — and writes its trace and run report into dir,
// as anonsim -trace -report would.
func writeScenario(t *testing.T, dir string) (trace, report string) {
	t.Helper()
	trace, report = filepath.Join(dir, "trace.jsonl.gz"), filepath.Join(dir, "report.json")
	tf, err := rm.CreateTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rm.NewNetwork(rm.NetworkConfig{N: 32, Seed: 11, LossRate: 0.02, Tracer: tf})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := net.NewSession(0, 1, rm.Params{Protocol: rm.SimEra, K: 4, R: 2, MaxEstablishAttempts: 50})
	if err != nil {
		t.Fatal(err)
	}
	sess.Establish()
	net.Run(rm.Minute)
	if !sess.Established() {
		t.Fatal("establishment failed")
	}
	sess.EnableRepair(10 * rm.Second)
	msg := make([]byte, 1024)
	for i := 0; i < 12; i++ {
		if _, err := sess.SendMessage(msg); err != nil {
			t.Fatal(err)
		}
		net.Run(net.Eng.Now() + 10*rm.Second)
	}
	net.Run(net.Eng.Now() + rm.Minute)
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	snap := net.Reg.Snapshot()
	rep := &rm.RunReport{Name: "anontrace-test", Seed: 11, Metrics: &snap}
	if err := rep.WriteJSONFile(report); err != nil {
		t.Fatal(err)
	}
	return trace, report
}

// anontrace runs the command and returns its exit code and output.
func anontrace(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func checkGolden(t *testing.T, name, got string) {
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
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGolden pins what the two subcommands print for the scenario.
func TestGolden(t *testing.T) {
	trace, report := writeScenario(t, t.TempDir())

	code, all, stderr := anontrace("stream", trace)
	if code != 0 {
		t.Fatalf("stream: exit code %d; stderr:\n%s", code, stderr)
	}
	var mid uint64
	if _, err := fmt.Sscanf(all, "message %d ", &mid); err != nil {
		t.Fatalf("no first message in stream output: %v\n%.200s", err, all)
	}

	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report.golden", []string{"report", trace}},
		{"report_reconcile.golden", []string{"report", "-reconcile", report, "-strict", trace}},
		{"stream_id.golden", []string{"stream", "-id", fmt.Sprint(mid), trace}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			code, stdout, stderr := anontrace(tc.args...)
			if code != 0 {
				t.Fatalf("anontrace %v: exit code %d; stderr:\n%s", tc.args, code, stderr)
			}
			checkGolden(t, tc.golden, stdout)
			if tc.golden == "stream_id.golden" && !strings.HasPrefix(all, stdout) {
				t.Errorf("stream -id %d is not the first stream of the full listing", mid)
			}
		})
	}
}

// TestArgumentOrder: flags are accepted on either side of the trace
// source, as every other command of the repository takes them.
func TestArgumentOrder(t *testing.T) {
	trace, report := writeScenario(t, t.TempDir())
	for _, tc := range []struct {
		name   string
		orders [][]string
	}{
		{"report", [][]string{
			{"report", "-strict", "-reconcile", report, trace},
			{"report", trace, "-strict", "-reconcile", report},
			{"report", "-strict", trace, "-reconcile", report},
		}},
		{"stream", [][]string{
			{"stream", "-id", "0", trace},
			{"stream", trace, "-id", "0"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for i, args := range tc.orders {
				code, got, stderr := anontrace(args...)
				if code != 0 || got == "" {
					t.Fatalf("anontrace %v: exit code %d; stderr:\n%s", args, code, stderr)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("anontrace %v and %v print different analyses", tc.orders[0], args)
				}
			}
			// The flags were applied, not swallowed as positionals.
			if tc.name == "report" && !strings.Contains(want, "reconciliation: analysis matches") {
				t.Errorf("-reconcile was not applied:\n%s", want)
			}
		})
	}

	for _, args := range [][]string{
		nil,
		{"diff", "a.json", "b.json"},
		{"report"},
		{"report", trace, trace},
		{"report", "-json", "out.json", trace},
		{"stream", "-id"},
	} {
		if code, stdout, stderr := anontrace(args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("anontrace %v: exit code %d, stdout %q, stderr %q; want usage on stderr and exit 2", args, code, stdout, stderr)
		}
	}
}

// TestStrictFailsOnBrokenTrace removes one tagged delivery from the
// trace: the causal chain no longer joins, report says so, and -strict
// turns that into exit code 1.
func TestStrictFailsOnBrokenTrace(t *testing.T) {
	dir := t.TempDir()
	trace, _ := writeScenario(t, dir)
	rd, err := obs.OpenTraceReader(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	broken := filepath.Join(dir, "broken.jsonl")
	tf, err := rm.CreateTraceFile(broken)
	if err != nil {
		t.Fatal(err)
	}
	removed := false
	if err := obs.ForEachEvent(rd, func(e obs.Event) error {
		if !removed && e.Type == obs.MsgDelivered && e.ID != 0 && e.Hop == 1 {
			removed = true
			return nil
		}
		tf.Emit(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("scenario has no tagged hop-1 delivery to remove")
	}

	code, stdout, _ := anontrace("report", broken)
	if code != 0 || !strings.Contains(stdout, "trace integrity: ") || strings.Contains(stdout, "trace integrity: OK") {
		t.Fatalf("report without -strict: exit code %d, want 0 with integrity errors printed:\n%s", code, stdout)
	}
	if code, _, _ := anontrace("report", "-strict", broken); code != 1 {
		t.Fatalf("report -strict on a broken trace: exit code %d, want 1", code)
	}
	if code, _, _ := anontrace("report", "-strict", trace); code != 0 {
		t.Fatalf("report -strict on the intact trace: exit code %d, want 0", code)
	}
}
