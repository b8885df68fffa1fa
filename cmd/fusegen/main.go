// Command fusegen generates fusion backup machines for a set of DFSMs.
//
// Input machines come either from .fsm spec files (-spec, repeatable) or
// from the built-in model zoo (-zoo, comma-separated names). The tool
// computes the reachable cross product, runs Algorithm 2 for the requested
// fault budget, and prints the backup machines along with the
// fusion-vs-replication state-space comparison of the paper's Section 6.
//
// Usage:
//
//	fusegen -zoo MESI,TCP,A,B -f 1
//	fusegen -spec mymachines.fsm -f 2 -dot out.dot -table
//	fusegen -zoo MESI,TCP,A,B -f 2 -workers 8
//	fusegen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	fusion "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fusegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fusegen", flag.ContinueOnError)
	var (
		specs   multiFlag
		zoo     = fs.String("zoo", "", "comma-separated zoo machine names (see -list)")
		f       = fs.Int("f", 1, "number of crash faults to tolerate (Byzantine: f/2)")
		list    = fs.Bool("list", false, "list the built-in model zoo and exit")
		dot     = fs.String("dot", "", "write the generated machines as Graphviz dot to this file")
		table   = fs.Bool("table", false, "print the transition tables of the backups")
		maxM    = fs.Int("max-machines", 0, "abort if more than this many backups are needed (0 = unlimited)")
		specOut = fs.Bool("spec-out", false, "print the backups in .fsm spec format")
		plan    = fs.Bool("plan", false, "print the capacity plan (fusion vs replication) instead of the machines")
		workers = fs.Int("workers", 0, "worker-pool size for candidate evaluation (0 = GOMAXPROCS)")
		dstats  = fs.Bool("descent-stats", false, "print descent-engine sharing counters (implied/seeded/cold cascades) for this generation")
	)
	fs.Var(&specs, "spec", "machine spec file (.fsm); repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(out, strings.Join(fusion.ZooNames(), "\n"))
		return nil
	}

	var ms []*fusion.Machine
	for _, path := range specs {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		parsed, err := fusion.ParseSpec(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		ms = append(ms, parsed...)
	}
	if *zoo != "" {
		for _, name := range strings.Split(*zoo, ",") {
			m, err := fusion.ZooMachine(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return fmt.Errorf("no machines given; use -spec or -zoo (or -list)")
	}

	sys, err := fusion.NewSystem(ms)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "system: %d machines, |top| = %d, dmin = %d (tolerates %d crash faults unaided)\n",
		len(ms), sys.N(), sys.Dmin(), sys.CrashFaultsTolerated())

	if *plan {
		p, err := fusion.PlanFusion(sys, *f)
		if err != nil {
			return err
		}
		fmt.Fprint(out, p.String())
		return nil
	}

	engine := fusion.NewEngine(fusion.EngineOptions{Workers: *workers})
	before := fusion.GenerationCounters()
	F, err := engine.GenerateWithOptions(sys, *f, fusion.GenerateOptions{MaxMachines: *maxM})
	if err != nil {
		return err
	}
	if *dstats {
		printDescentStats(out, before, fusion.GenerationCounters())
	}
	backups, err := sys.FusionMachines(F, "F")
	if err != nil {
		return err
	}

	fusionSpace := uint64(1)
	var sizes []string
	for _, b := range backups {
		fusionSpace *= uint64(b.NumStates())
		sizes = append(sizes, fmt.Sprintf("%d", b.NumStates()))
	}
	repl := fusion.ReplicationStateSpace(ms, *f)
	fmt.Fprintf(out, "fusion: %d backup machine(s), sizes [%s]\n", len(backups), strings.Join(sizes, " "))
	fmt.Fprintf(out, "state space: fusion %d vs replication %d (%.1fx smaller)\n",
		fusionSpace, repl, ratio(repl, fusionSpace))

	if *table {
		for _, b := range backups {
			fmt.Fprintln(out)
			fmt.Fprint(out, b.Table())
		}
	}
	if *specOut {
		fmt.Fprintln(out)
		fmt.Fprint(out, fusion.FormatSpec(backups))
	}
	if *dot != "" {
		var sb strings.Builder
		for _, b := range backups {
			sb.WriteString(b.DOT())
		}
		if err := os.WriteFile(*dot, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *dot)
	}
	return nil
}

// printDescentStats prints the delta of the process-wide generation
// counters around this run's generation: how many descents and levels it
// took, and how each candidate closure was resolved — the level-0
// pair-graph pass's split (implied / seeded-absorb / cold cascade, each
// deterministic) plus the cross-level reuses (seeded joins, pruned
// skips).
// Counters are process-wide, but fusegen runs exactly one generation, so
// the delta is that generation's work. Small systems (below the descent
// engine's gate) report all closures as cold cascades.
func printDescentStats(out io.Writer, before, after fusion.GenerationStats) {
	fmt.Fprintf(out, "descent stats: descents=%d levels=%d\n",
		after.Descents-before.Descents, after.Levels-before.Levels)
	fmt.Fprintf(out, "  cascades: implied=%d seeded=%d cold=%d (of %d closures)\n",
		after.ImpliedCascades-before.ImpliedCascades,
		after.SeededCascades-before.SeededCascades,
		after.ColdCascades-before.ColdCascades,
		after.ColdClosures-before.ColdClosures)
	fmt.Fprintf(out, "  cross-level: seeded-joins=%d pruned-skips=%d\n",
		after.SeededJoins-before.SeededJoins,
		after.PrunedSkips-before.PrunedSkips)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// multiFlag collects repeated -spec flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
