// Package experiments reproduces every table and figure of the paper's
// evaluation (§6), plus extensions (ext*) and ablations of its design
// choices (abl*). Each experiment has an ID, a harness returning
// structured rows, and a text renderer that prints the same rows/series
// the paper reports. cmd/anonbench drives them; every reported number
// comes out of this registry.
//
// Experiments are deterministic per seed. Parameter points fan out
// across GOMAXPROCS goroutines, one independent simulation per worker.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Result is a generic experiment result: a caption, column headers, and
// rows of formatted cells. Numeric series for figures use one row per x
// value.
type Result struct {
	ID      string
	Caption string
	Header  []string
	Rows    [][]string
	// Notes carries shape-check outcomes and paper-expectation context
	// written into EXPERIMENTS.md.
	Notes []string
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Caption); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the result as a CSV file (header row, then data rows;
// notes become trailing "#"-prefixed comment lines) so the figures can
// be re-plotted with external tooling.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes experiment scale. The zero value reproduces the paper's
// setup; Quick shrinks everything for benchmarks and smoke tests.
type Options struct {
	// Seed is the base random seed; parameter points derive their own.
	Seed int64
	// Quick shrinks network size, trial counts and simulated time by an
	// order of magnitude — same shapes, minutes less compute.
	Quick bool
}

// Runner is an experiment entry point.
type Runner func(Options) (*Result, error)

// registry maps experiment IDs to runners, in display order.
var registry = []struct {
	ID    string
	Title string
	Run   Runner
}{
	{"fig1", "Gnutella lifetime CDF vs Pareto fit", Fig1},
	{"fig2", "Validation of the three observations (r=2, L=3)", Fig2},
	{"fig3", "P(k) for varying replication factor (pa=0.70)", Fig3},
	{"fig4", "Bandwidth cost for varying replication factor (pa=0.70)", Fig4},
	{"tab1", "Path setup success rates for three protocols", Tab1},
	{"fig5", "Path setup success vs k and r (random / biased)", Fig5},
	{"tab2", "Performance comparison among three protocols", Tab2},
	{"tab3", "SimEra(4,4) with varying median node lifetime", Tab3},
	{"tab4", "SimEra(4,4) with different lifetime distributions", Tab4},
	{"ext1", "EXT: predecessor attack, empirical vs Equation 4", Ext1},
	{"ext2", "EXT: membership freshness vs biased setup success", Ext2},
	{"ext3", "EXT: even vs weighted segment allocation (§7)", Ext3},
	{"ext4", "EXT: cost of mutual anonymity via rendezvous (§3)", Ext4},
	{"ext5", "EXT: timing-correlation attack vs cover traffic (§4.6)", Ext5},
	{"ext6", "EXT: long-lived attacker vs biased mix choice (§7)", Ext6},
	{"ext7", "EXT: path length trade-off, anonymity vs resilience", Ext7},
	{"ext8", "EXT: relay load concentration under biased choice", Ext8},
	{"ext9", "EXT: delivery under random link loss", Ext9},
	{"abl1", "ABL: erasure coding vs replication at equal bandwidth (§4.7)", Abl1},
	{"abl2", "ABL: reactive vs predictive path replacement (§4.5)", Abl2},
	{"abl3", "ABL: combined construct+send vs two-pass (§4.2)", Abl3},
}

// IDs returns the experiment IDs in canonical order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Title returns an experiment's display title.
func Title(id string) string {
	for _, e := range registry {
		if e.ID == id {
			return e.Title
		}
	}
	return ""
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Result, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run(opts)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// RunAll executes every experiment in order.
func RunAll(opts Options) ([]*Result, error) {
	out := make([]*Result, 0, len(registry))
	for _, e := range registry {
		r, err := e.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// parallelMap runs f over indices 0..n-1 on up to GOMAXPROCS workers and
// collects the outputs in index order. Each call site passes a pure
// function over its own freshly seeded simulation, so workers share
// nothing (share memory by communicating).
func parallelMap[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fmtPct renders a fraction as a percentage with two decimals, as the
// paper's Table 1 does.
func fmtPct(frac float64) string { return fmt.Sprintf("%.2f%%", frac*100) }

// fmtPair renders the paper's "[random, biased]" cell convention.
func fmtPair(random, biased string) string { return fmt.Sprintf("[%s, %s]", random, biased) }

// sortedKeys returns a map's keys in ascending order (determinism for
// rendering).
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
