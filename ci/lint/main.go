// Command lint checks the repo-local rules go vet does not know. There
// are three rule sets, each keeping one contract:
//
//   - session: internal/session stays sans-IO. Its non-test files may
//     import no socket, clock, context or randomness, no engine and
//     neither of its drivers, and may start no goroutine. That contract
//     is what lets one session implementation run under the simulator's
//     engine (same-seed traces stay byte-identical), the TCP node and a
//     virtual clock in tests; an import or a `go` statement slipping in
//     would break it silently.
//   - http: every debug/metrics server is built with timeouts and
//     serves only an explicit mux (the rules are listed at checkHTTP).
//   - cluster: fleet observation is one pipeline. Everything anonctl
//     knows about a running fleet comes from cluster.Recorder's poll
//     (/metrics + /readyz → tsdb → rules → RenderWatch); the one-shot
//     twin it replaced once grew beside it unnoticed. So in the non-test
//     files of internal/cluster and cmd/anonctl, only recorder.go may
//     name the "/metrics" endpoint — a second scraper cannot come back
//     unnoticed.
//
// Usage: go run ./ci/lint [root]   (default ".")
//
// It prints file:line diagnostics and exits 1 on any violation, 2 when
// the tree cannot be read. `go test ./ci/lint` runs the same rules over
// the repository, so tier 1 enforces them.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "lint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lint runs every rule set over the repository at root.
func lint(root string) ([]string, error) {
	var all []string
	for _, rules := range []func(root string) ([]string, error){lintSession, lintHTTP, lintCluster} {
		problems, err := rules(root)
		if err != nil {
			return nil, err
		}
		all = append(all, problems...)
	}
	return all, nil
}

// sources returns the non-test Go files directly in dir; none is an
// error, since a rule over an empty directory would pass vacuously.
func sources(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return out, nil
}

var sessionForbidden = []string{
	"net", "time", "context", "math/rand", "crypto/rand",
	"resilientmix/internal/sim", "resilientmix/internal/core", "resilientmix/internal/livenet",
}

// lintSession keeps internal/session sans-IO: no forbidden import and
// no `go` statement.
func lintSession(root string) ([]string, error) {
	files, err := sources(filepath.Join(root, "internal", "session"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			name, _ := strconv.Unquote(imp.Path.Value)
			for _, no := range sessionForbidden {
				if name == no || strings.HasPrefix(name, no+"/") {
					report(imp.Pos(), "the session core must not import %q", name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "the session core must not start goroutines")
			}
			return true
		})
	}
	return problems, nil
}

// lintHTTP walks every non-test .go file under root (skipping testdata
// and .git) and applies checkHTTP to it.
func lintHTTP(root string) ([]string, error) {
	fset := token.NewFileSet()
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		problems = append(problems, checkHTTP(fset, path, f)...)
		return nil
	})
	return problems, err
}

// httpName returns the local identifier the file binds "net/http" to,
// or "" when the file does not import it.
func httpName(f *ast.File) string {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "net/http" {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "" // dot/blank imports are out of scope
			}
			return imp.Name.Name
		}
		return "http"
	}
	return ""
}

// importsPprof reports whether the file imports net/http/pprof under
// any name (including blank — the import's side effect is the hazard).
func importsPprof(f *ast.File) bool {
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "net/http/pprof" {
			return true
		}
	}
	return false
}

// checkHTTP applies the HTTP hygiene rules to one file:
//
//  1. No package-level http.ListenAndServe / http.ListenAndServeTLS
//     calls. Those construct an http.Server with no timeouts at all, so
//     a single slow-loris client can pin a goroutine forever. Servers
//     must be built explicitly (rule 2) and started via the method.
//  2. Every *http.Server composite literal must set ReadHeaderTimeout.
//     That is the one timeout that is always safe to set — it bounds
//     header parsing without constraining long-lived streaming
//     responses like /debug/trace.
//  3. "net/http/pprof" may be imported only from internal/livenet.
//     That package's init() registers the profiling handlers on
//     http.DefaultServeMux; internal/livenet mounts them on an explicit
//     mux behind the gated -debug listener and never serves the default
//     mux, which is what keeps CPU/heap profiles off the
//     anonymity-critical listeners. An import anywhere else would put
//     profile handlers one DefaultServeMux-serving server away from
//     public exposure.
//  4. No package-level http.Handle / http.HandleFunc calls. Those
//     register on http.DefaultServeMux, the same mux net/http/pprof
//     (and expvar) self-register on — a server built around it would
//     silently expose every such handler. Handlers must be mounted on
//     an explicitly constructed mux.
//
// The check is purely syntactic: it keys on files that import
// "net/http" and on the local name that import binds, so aliased
// imports are caught too.
func checkHTTP(fset *token.FileSet, path string, f *ast.File) []string {
	var problems []string
	if importsPprof(f) && !strings.Contains(filepath.ToSlash(path), "internal/livenet/") {
		problems = append(problems, fmt.Sprintf(
			"%s: net/http/pprof registers on DefaultServeMux; import it only from internal/livenet (gated debug mux)",
			fset.Position(f.Pos())))
	}
	pkg := httpName(f)
	if pkg == "" {
		return problems
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					switch sel.Sel.Name {
					case "ListenAndServe", "ListenAndServeTLS":
						problems = append(problems, fmt.Sprintf(
							"%s: %s.%s has no timeouts; build an %s.Server with ReadHeaderTimeout instead",
							fset.Position(n.Pos()), pkg, sel.Sel.Name, pkg))
					case "Handle", "HandleFunc":
						problems = append(problems, fmt.Sprintf(
							"%s: %s.%s registers on DefaultServeMux (where net/http/pprof self-registers); mount on an explicit mux",
							fset.Position(n.Pos()), pkg, sel.Sel.Name))
					}
				}
			}
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && sel.Sel.Name == "Server" {
					if !setsField(n, "ReadHeaderTimeout") {
						problems = append(problems, fmt.Sprintf(
							"%s: %s.Server literal does not set ReadHeaderTimeout",
							fset.Position(n.Pos()), pkg))
					}
				}
			}
		}
		return true
	})
	return problems
}

func setsField(lit *ast.CompositeLit, field string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}

// lintCluster allows the "/metrics" endpoint, on any line, only in
// recorder.go among the non-test files of internal/cluster and
// cmd/anonctl.
func lintCluster(root string) ([]string, error) {
	var problems []string
	for _, dir := range []string{filepath.Join(root, "internal", "cluster"), filepath.Join(root, "cmd", "anonctl")} {
		files, err := sources(dir)
		if err != nil {
			return nil, err
		}
		for _, path := range files {
			if filepath.Base(path) == "recorder.go" {
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				if strings.Contains(sc.Text(), `"/metrics"`) {
					problems = append(problems, fmt.Sprintf(
						"%s:%d: only recorder.go fetches \"/metrics\"; read the recorder's store instead", path, line))
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				return nil, err
			}
		}
	}
	return problems, nil
}
