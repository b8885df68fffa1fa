package core_test

// Equivalence suite for the incremental descent engine: Algorithm 2 with
// cross-level candidate reuse (violation pruning, survivor-seeded joins)
// and the within-level pair-graph pass must produce bit-identical fusions
// to the cold-start descent, on random systems and on every Table 1
// suite.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/partition"
)

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
// random systems with the incremental engine on and off and demands
// identical output.
func TestIncrementalDescentEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		sys := randomEquivSystem(t, rng, 48)
		f := 1 + rng.Intn(3)
		inc, err := core.GenerateFusion(sys, f, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.GenerateFusion(sys, f, core.GenerateOptions{NoIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameFusions(t, "random trial", inc, cold)
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
		cold, err := core.GenerateFusion(sys, s.F, core.GenerateOptions{NoIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameFusions(t, s.Name, inc, cold)
	}
}
