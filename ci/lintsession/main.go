// Command lintsession keeps internal/session sans-IO: its non-test
// files may import no socket, clock, context or randomness, no engine
// and neither of its drivers, and may start no goroutine. That contract
// is what lets one session implementation run under the simulator's
// engine (same-seed traces stay byte-identical), the TCP node and a
// virtual clock in tests; an import or a `go` statement slipping in
// would break it silently.
//
// Usage: go run ./ci/lintsession [dir]   (default "internal/session")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

var forbidden = []string{
	"net", "time", "context", "math/rand", "crypto/rand",
	"resilientmix/internal/sim", "resilientmix/internal/core", "resilientmix/internal/livenet",
}

func main() {
	dir := "internal/session"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "lintsession: no Go files in %s (%v)\n", dir, err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	bad := 0
	report := func(pos token.Pos, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
		bad++
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintsession:", err)
			os.Exit(2)
		}
		for _, imp := range f.Imports {
			name, _ := strconv.Unquote(imp.Path.Value)
			for _, no := range forbidden {
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
	if bad > 0 {
		os.Exit(1)
	}
}
