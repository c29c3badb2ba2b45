package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGolden pins anonbench's stdout: the experiment list, and two
// quick-mode figures end to end through flag parsing, the harness and
// the renderer. The per-experiment timing lines go to stderr and stay
// out of the golden.
func TestGolden(t *testing.T) {
	for name, args := range map[string]string{
		"list.golden":            "-list",
		"fig3_fig4_quick.golden": "-exp fig3,fig4 -quick -seed 1",
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("anonbench %s: exit code %d; stderr:\n%s", args, code, stderr.String())
			}
			path := filepath.Join("testdata", name)
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
				t.Errorf("anonbench %s drifted from %s:\n--- got ---\n%s--- want ---\n%s", args, name, got, want)
			}
		})
	}
}
