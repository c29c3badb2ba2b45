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

// TestGolden pins anonsim's stdout for the two same-seed repair
// scenarios refactors of the hop and session cores are checked against
// (.claude/skills/verify): a quiet hour (360/360 delivered, 6 paths
// died, 6 replaced) and one with 5 % link loss and hundreds of repairs
// (3510/3595, 1490 / 1490).
func TestGolden(t *testing.T) {
	for name, args := range map[string]string{
		"repair.golden":      "-n 256 -seed 1 -repair",
		"repair_loss.golden": "-n 256 -seed 7 -repair -loss 0.05 -interval 1s",
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("anonsim %s: exit code %d; stderr:\n%s", args, code, stderr.String())
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
				t.Errorf("anonsim %s drifted from %s:\n--- got ---\n%s--- want ---\n%s", args, name, got, want)
			}
		})
	}
}
