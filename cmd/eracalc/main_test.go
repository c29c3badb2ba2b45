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

// TestGolden pins eracalc's table in each of the three allocation
// regimes of §4.7, and its exit code on a parameter the closed forms
// refuse.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden, args string
		code         int
	}{
		{"observation1.golden", "-pa 0.70 -L 3 -r 4 -N 1024 -f 0.1", 0},
		{"observation2.golden", "", 0},
		{"observation3.golden", "-pa 0.5 -r 2 -kmax 8 -N 256 -f 0.2 -L 2", 0},
		{"bad_fraction.golden", "-kmax 4 -f 2", 1},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
				t.Fatalf("eracalc %s: exit code %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
			}
			if (stderr.Len() != 0) != (tc.code != 0) {
				t.Errorf("eracalc %s: exit code %d with stderr %q", tc.args, tc.code, stderr.String())
			}
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
				t.Errorf("eracalc %s drifted from %s:\n--- got ---\n%s--- want ---\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
}
