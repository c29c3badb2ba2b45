package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoPassesLint runs every rule set over this repository.
func TestRepoPassesLint(t *testing.T) {
	problems, err := lint(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestRulesCatch writes a minimal tree that passes, then breaks it one
// rule at a time: each break must be reported, and only it.
func TestRulesCatch(t *testing.T) {
	clean := map[string]string{
		"internal/session/machine.go":  "package session\n",
		"internal/cluster/recorder.go": "package cluster\n\nconst endpoint = \"/metrics\"\n",
		"cmd/anonctl/main.go":          "package main\n",
	}
	cases := []struct {
		name, file, src, want string
	}{
		{"session goroutine", "internal/session/machine.go",
			"package session\n\nfunc f() { go f() }\n", "must not start goroutines"},
		{"session clock", "internal/session/machine.go",
			"package session\n\nimport \"time\"\n\nvar _ time.Duration\n", `must not import "time"`},
		{"server without timeouts", "cmd/anonnode/main.go",
			"package main\n\nimport \"net/http\"\n\nfunc main() { http.ListenAndServe(\":0\", nil) }\n", "has no timeouts"},
		{"aliased server literal", "cmd/anonnode/main.go",
			"package main\n\nimport h \"net/http\"\n\nvar s = &h.Server{Addr: \":0\"}\n", "does not set ReadHeaderTimeout"},
		{"default mux", "cmd/anonnode/main.go",
			"package main\n\nimport \"net/http\"\n\nfunc init() { http.HandleFunc(\"/\", nil) }\n", "registers on DefaultServeMux"},
		{"pprof outside livenet", "cmd/anonnode/main.go",
			"package main\n\nimport _ \"net/http/pprof\"\n", "import it only from internal/livenet"},
		{"second scraper", "internal/cluster/watch.go",
			"package cluster\n\nconst scrape = \"/metrics\"\n", `only recorder.go fetches "/metrics"`},
	}
	tree := func(t *testing.T, extra map[string]string) string {
		root := t.TempDir()
		for _, files := range []map[string]string{clean, extra} {
			for name, src := range files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return root
	}
	if problems, err := lint(tree(t, nil)); err != nil || len(problems) != 0 {
		t.Fatalf("clean tree: %v %v", problems, err)
	}
	for _, c := range cases {
		problems, err := lint(tree(t, map[string]string{c.file: c.src}))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(problems) != 1 || !strings.Contains(problems[0], c.want) {
			t.Errorf("%s: reported %q, want one problem saying %q", c.name, problems, c.want)
		}
	}
	// A rule over a directory that is not there would pass vacuously.
	if _, err := lint(t.TempDir()); err == nil {
		t.Error("a tree without internal/session passed")
	}
}
