// Command eracalc is the allocation guideline calculator of §4.7: given
// a per-node availability, path length and replication factor, it
// classifies the regime (Observations 1-3), tabulates the closed-form
// delivery probability P(k) over a range of k, and reports the §5
// initiator-anonymity bound.
//
// Usage:
//
//	eracalc -pa 0.86 -L 3 -r 2 -kmax 20
//	eracalc -pa 0.70 -L 3 -r 4 -N 1024 -f 0.1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	rm "resilientmix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the table goes to stdout, errors to stderr,
// and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eracalc", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		pa   = fs.Float64("pa", 0.86, "per-node availability in [0,1]")
		l    = fs.Int("L", 3, "relay nodes per path")
		r    = fs.Int("r", 2, "replication factor r = n/m")
		kmax = fs.Int("kmax", 20, "maximum number of paths to tabulate")
		n    = fs.Int("N", 1024, "system size for the anonymity bound")
		f    = fs.Float64("f", 0.1, "fraction of colluding malicious nodes")
	)
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "eracalc:", err)
		return 1
	}

	p := rm.PathSuccessProbability(*pa, *l)
	regime := rm.AllocationRegime(p, *r)
	fmt.Fprintf(stdout, "per-path success p = pa^L = %.4f, pr = %.4f -> %v\n", p, p*float64(*r), regime)
	switch regime {
	case 1:
		fmt.Fprintln(stdout, "guideline: split across as many paths as bandwidth allows (P(k) increases in k)")
	case 2:
		fmt.Fprintln(stdout, "guideline: split only when k is large enough (P(k) dips before rising)")
	default:
		fmt.Fprintln(stdout, "guideline: do not split beyond r paths (P(k) decreases in k)")
	}

	fmt.Fprintf(stdout, "\n%4s  %10s\n", "k", "P(k)")
	for k := *r; k <= *kmax; k += *r {
		pk, err := rm.DeliveryProbability(k, *r, p)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%4d  %10.6f\n", k, pk)
	}

	anon, err := rm.InitiatorAnonymity(*n, *f, *l)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\ninitiator anonymity (Eq. 4): P(x = I) = %.6f with N=%d, f=%.2f, L=%d\n", anon, *n, *f, *l)
	fmt.Fprintf(stdout, "(uniform-guess baseline would be %.6f)\n", 1/float64(*n))
	return 0
}
