// Command paper regenerates every table and figure of the IPPS 2009
// fusion paper's evaluation from this reproduction (internal/experiments
// implements each experiment; benchmarks/README.md records timings).
//
// Usage:
//
//	paper                      # run everything
//	paper -experiment table1   # one artifact: fig1..fig5, table1, sensor, recovery
//	paper -experiment fig3 -dot  # include the Hasse diagram DOT
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	var (
		exp    = fs.String("experiment", "all", "fig1|fig2|fig3|fig4|fig5|table1|sensor|recovery|scaling|theorems|all")
		dot    = fs.Bool("dot", false, "with fig3: print the lattice Hasse diagram (Graphviz)")
		rounds = fs.Int("rounds", 3, "recovery rounds per suite")
		seed   = fs.Int64("seed", 2009, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	runners := map[string]func() error{
		"fig1":     func() error { return runFig1(out) },
		"fig2":     func() error { return runFig2(out) },
		"fig3":     func() error { return runFig3(out, *dot) },
		"fig4":     func() error { return runFig4(out) },
		"fig5":     func() error { return runFig5(out) },
		"table1":   func() error { return runTable1(out) },
		"sensor":   func() error { return runSensor(out, *seed) },
		"recovery": func() error { return runRecovery(out, *rounds, *seed) },
		"scaling":  func() error { return runScaling(out) },
		"theorems": func() error { return runTheorems(out) },
	}
	if *exp == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "sensor", "recovery", "scaling", "theorems"} {
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	r, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return r()
}
