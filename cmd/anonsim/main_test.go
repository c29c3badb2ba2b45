package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGolden is the exact oracle for a simulated run: for each of the
// same-seed scenarios refactors of the hop, session and message-plane
// code are checked against, it pins stdout with -analyze (outcome,
// p50/p99, latency attribution, anonymity set, entropy, linkage) plus
// the trace's event count and the sha256 of its uncompressed JSONL.
// Same seed, same bytes: a protocol refactor must not need
// -update-golden, and a PR that does must name the intended protocol
// change in CHANGES.md.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		// A quiet hour: 360/360 delivered, 6 paths died, 6 replaced.
		{"repair.golden", "-n 256 -seed 1 -repair"},
		// 5 % link loss, hundreds of repairs (3510/3595, 1490 / 1490).
		{"repair_loss.golden", "-n 256 -seed 7 -repair -loss 0.05 -interval 1s"},
		// The same under three times the churn.
		{"repair_loss_short.golden", "-n 256 -seed 7 -repair -loss 0.05 -interval 1s -cap 20m -median 20m"},
		// Proactive replacement beside repair.
		{"repair_predict.golden", "-n 256 -seed 3 -repair -predict -interval 2s -cap 30m"},
		// No repair: the path set dies after 49 s.
		{"loss.golden", "-n 256 -seed 5 -loss 0.02 -cap 20m"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.jsonl")
			args := append(strings.Fields(tc.args), "-analyze", "-trace", trace)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("anonsim %s: exit code %d; stderr:\n%s", tc.args, code, stderr.String())
			}
			f, err := os.Open(trace)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sum, events := sha256.New(), new(lineCounter)
			if _, err := io.Copy(io.MultiWriter(sum, events), f); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&stdout, "\ntrace: %d events, sha256 %x\n", *events, sum.Sum(nil))

			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("anonsim %s drifted from %s:\n--- got ---\n%s--- want ---\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
}

// TestDefaultsAreOneTab2Sample: anonsim's defaults are Table 2's
// SimEra(4,4) biased cell, and -seed 115445238 is its sample 0 at
// anonbench -seed 1. internal/experiments' TestTab2SampleIsAnonsimDefault
// pins the same four numbers for that sample.
func TestDefaultsAreOneTab2Sample(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "115445238"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"after 1 attempt(s)",
		"durability       2990 s\n",
		"mean latency     241 ms\n",
		"bandwidth        12.7 KB/message\n",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// lineCounter counts the newlines written to it: one per trace event.
type lineCounter int

func (c *lineCounter) Write(p []byte) (int, error) {
	*c += lineCounter(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// TestReportDeterministic: an equal-seed report is an equal file. The
// report holds only what is a function of the seed (no wall clock, no
// artifact paths), so two runs writing to different paths must produce
// the same bytes.
func TestReportDeterministic(t *testing.T) {
	report := func() []byte {
		dir := t.TempDir()
		path := filepath.Join(dir, "report.json")
		args := append(strings.Fields("-n 256 -seed 5 -loss 0.02 -cap 20m -analyze"),
			"-trace", filepath.Join(dir, "trace.jsonl.gz"), "-report", path)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := report(), report()
	if len(a) == 0 {
		t.Fatal("report is empty")
	}
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("same seed wrote different reports; first difference at line %d:\n  %s\n  %s", i+1, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("same seed wrote reports of %d and %d lines", len(la), len(lb))
	}
}

// TestFailedRunLeavesNoCorruptTrace: a run that fails after its
// artifacts were opened must still close them. A missing -faults file
// is refused before the world is built; whatever trace file is left
// behind must be a complete gzip stream.
func TestFailedRunLeavesNoCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl.gz")
	args := append(strings.Fields("-n 64 -cap 5m"),
		"-trace", trace, "-report", filepath.Join(dir, "r.json"),
		"-faults", filepath.Join(dir, "nonexistent.jsonl"))
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nonexistent.jsonl") {
		t.Errorf("stderr does not name the missing schedule:\n%s", stderr.String())
	}
	f, err := os.Open(trace)
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("trace left behind is not a gzip stream: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("trace left behind is a truncated gzip stream: %v", err)
	}
}
