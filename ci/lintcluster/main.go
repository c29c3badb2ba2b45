// Command lintcluster keeps fleet observation one pipeline. Everything
// anonctl knows about a running fleet comes from cluster.Recorder's
// poll (/metrics + /readyz → tsdb → rules → RenderWatch); the one-shot
// twin it replaced grew beside it for ten PRs. So in the non-test files
// of internal/cluster and cmd/anonctl, only recorder.go may name the
// "/metrics" endpoint — a second scraper cannot come back unnoticed.
//
// Usage: go run ./ci/lintcluster [dir ...]   (default "internal/cluster" "cmd/anonctl")
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := []string{"internal/cluster", "cmd/anonctl"}
	if len(os.Args) > 1 {
		dirs = os.Args[1:]
	}
	bad := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "lintcluster: no Go files in %s (%v)\n", dir, err)
			os.Exit(2)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lintcluster:", err)
				os.Exit(2)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				if strings.Contains(sc.Text(), `"/metrics"`) && filepath.Base(path) != "recorder.go" {
					fmt.Fprintf(os.Stderr, "%s:%d: only recorder.go fetches \"/metrics\"; read the recorder's store instead\n", path, line)
					bad++
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "lintcluster:", err)
				os.Exit(2)
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}
