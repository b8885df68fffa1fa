package core_test

// Equivalence suite for the incremental descent engine: Algorithm 2 with
// cross-level candidate reuse (violation pruning, per-seed joins) and the
// level-0 pair-graph pass must produce bit-identical fusions to a
// test-only cold-start generation, on random systems and on every Table 1
// suite.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/partition"
)

// coldGenerate is the test-only reference for GenerateFusion: the same
// outer loop, with every descent level evaluated cold as the full
// per-pair candidate list under the weakest edges (serialMergeClosures)
// and its Less-minimum, and no state carried between levels.
func coldGenerate(t *testing.T, sys *core.System, f int) []partition.P {
	t.Helper()
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	var out []partition.P
	for g.Dmin() <= f {
		required := g.WeakestEdges()
		m := partition.Singletons(sys.N())
		for m.NumBlocks() > 1 {
			cands := serialMergeClosures(sys.Top, m, required)
			if len(cands) == 0 {
				break
			}
			best := cands[0]
			for _, c := range cands[1:] {
				if c.Less(best) {
					best = c
				}
			}
			m = best
		}
		out = append(out, m)
		g.Add(m)
	}
	return out
}

// assertSameFusions fails unless the two fusion sets are bit-identical:
// same cardinality, same partitions, same order.
func assertSameFusions(t *testing.T, label string, inc, cold []partition.P) {
	t.Helper()
	if len(inc) != len(cold) {
		t.Fatalf("%s: incremental produced %d fusions, cold %d", label, len(inc), len(cold))
	}
	for i := range inc {
		if !inc[i].Equal(cold[i]) {
			t.Fatalf("%s: fusion %d differs: incremental %s vs cold %s", label, i, inc[i], cold[i])
		}
	}
}

// TestIncrementalDescentEquivalenceRandom runs full generations over
// random systems through GenerateFusion and the cold reference and
// demands identical output.
func TestIncrementalDescentEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		sys := randomEquivSystem(t, rng, 48)
		f := 1 + rng.Intn(3)
		inc, err := core.GenerateFusion(sys, f, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameFusions(t, "random trial", inc, coldGenerate(t, sys, f))
	}
}

// TestIncrementalDescentEquivalenceTable1 pins the equivalence on the
// five paper suites themselves — the workloads the engine was built to
// accelerate. The expensive rows step aside under -short.
func TestIncrementalDescentEquivalenceTable1(t *testing.T) {
	for i, s := range machines.PaperSuites() {
		// Rows 1, 3 and 4 are the multi-hundred-millisecond generations;
		// doubling them is for full (CI) runs only.
		if testing.Short() && (i == 0 || i == 2 || i == 3) {
			t.Logf("short mode: skipping %s", s.Name)
			continue
		}
		ms, err := machines.SuiteMachines(s)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := core.GenerateFusion(sys, s.F, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameFusions(t, s.Name, inc, coldGenerate(t, sys, s.F))
	}
}
