package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/machines"
	"repro/internal/partition"
)

func generate(t *testing.T, sys *core.System, f int) []partition.P {
	t.Helper()
	F, err := core.GenerateFusion(sys, f, core.GenerateOptions{})
	if err != nil {
		t.Fatalf("GenerateFusion(f=%d): %v", f, err)
	}
	return F
}

// TestGenerateFusionFig1 checks the motivating example: one 3-state fusion
// machine suffices to tolerate one crash fault in the two mod-3 counters.
func TestGenerateFusionFig1(t *testing.T) {
	sys := fig1System(t)
	F := generate(t, sys, 1)
	if len(F) != 1 {
		t.Fatalf("got %d fusion machines, want 1 (f − dmin + 1 = 1)", len(F))
	}
	if got := F[0].NumBlocks(); got != 3 {
		t.Errorf("fusion machine has %d states, want 3 (paper: F1 or F2)", got)
	}
	ok, err := sys.IsFusion(F, 1)
	if err != nil || !ok {
		t.Fatalf("generated set is not a (1,1)-fusion: %v %v", ok, err)
	}
}

// TestGenerateFusionCounts verifies Theorem 5's cardinality claim on several
// systems: |F| = max(0, f − dmin(A) + 1).
func TestGenerateFusionCounts(t *testing.T) {
	systems := []struct {
		name string
		ms   []*dfsm.Machine
	}{
		{"fig1", []*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}},
		{"fig2", []*dfsm.Machine{machines.Fig2A(), machines.Fig2B()}},
		{"parity", []*dfsm.Machine{machines.EvenParity(), machines.OddParity(), machines.ToggleSwitch()}},
	}
	for _, tc := range systems {
		sys, err := core.NewSystem(tc.ms)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := sys.Dmin()
		for f := 0; f <= 3; f++ {
			F := generate(t, sys, f)
			want := f - d + 1
			if want < 0 {
				want = 0
			}
			if len(F) != want {
				t.Errorf("%s: f=%d dmin=%d: got %d machines, want %d", tc.name, f, d, len(F), want)
			}
			ok, err := sys.IsFusion(F, f)
			if err != nil || !ok {
				t.Errorf("%s: f=%d: generated set is not a fusion (%v, %v)", tc.name, f, ok, err)
			}
		}
	}
}

// TestGeneratedFusionIsLocallyMinimal: no generated machine can be replaced
// by a strictly smaller lattice element (part of Theorem 5's minimality).
func TestGeneratedFusionIsLocallyMinimal(t *testing.T) {
	for _, msf := range []struct {
		ms []*dfsm.Machine
		f  int
	}{
		{[]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}, 1},
		{[]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()}, 2},
	} {
		sys, err := core.NewSystem(msf.ms)
		if err != nil {
			t.Fatal(err)
		}
		F := generate(t, sys, msf.f)
		minimal, err := core.IsLocallyMinimalFusion(sys, F, msf.f)
		if err != nil {
			t.Fatal(err)
		}
		if !minimal {
			t.Errorf("f=%d: generated fusion is not locally minimal", msf.f)
		}
	}
}

// TestSubsetOfFusionTheorem3: dropping t machines from an (f,m)-fusion
// leaves an (f−t, m−t)-fusion.
func TestSubsetOfFusionTheorem3(t *testing.T) {
	sys := fig1System(t)
	F := generate(t, sys, 3) // (3,3)-fusion of the counters (dmin=1)
	if len(F) != 3 {
		t.Fatalf("got %d machines, want 3", len(F))
	}
	for drop := 0; drop <= 3; drop++ {
		sub := core.SubsetFusion(F, drop)
		ok, err := sys.IsFusion(sub, 3-drop)
		if err != nil || !ok {
			t.Errorf("dropping %d machines: remaining set is not a (%d,%d)-fusion (%v, %v)",
				drop, 3-drop, len(sub), ok, err)
		}
	}
}

// TestGenerateRecomputeMatchesIncremental: GenerateFusion keeps its fault
// graph up to date with an incremental Add per generated machine. Restarting
// it on a system whose parts already include the first k fusion machines
// rebuilds the graph from scratch; the remaining machines must not change.
func TestGenerateRecomputeMatchesIncremental(t *testing.T) {
	sys := fig2System(t)
	a := generate(t, sys, 2)
	if len(a) < 2 {
		t.Fatalf("f=2 gives %d machines; need at least 2 to restart between them", len(a))
	}
	for k := 1; k < len(a); k++ {
		rebuilt := *sys
		rebuilt.Parts = append(append([]partition.P{}, sys.Parts...), a[:k]...)
		b := generate(t, &rebuilt, 2)
		if len(b) != len(a)-k {
			t.Fatalf("k=%d: incremental leaves %d machines, recompute %d", k, len(a)-k, len(b))
		}
		for i := range b {
			if !a[k+i].Equal(b[i]) {
				t.Errorf("k=%d: machine %d differs between incremental and recompute runs", k, k+i)
			}
		}
	}
}

// TestGenerateMaxMachinesGuard: the guard trips when the budget is too low,
// before any descent runs (Theorem 5 fixes the count up front), and its
// message names f, the budget and dmin(A). A budget of exactly
// f − dmin(A) + 1 machines passes.
func TestGenerateMaxMachinesGuard(t *testing.T) {
	sys := fig1System(t)
	before := core.GenerationCounters()
	_, err := core.GenerateFusion(sys, 5, core.GenerateOptions{MaxMachines: 2})
	if err == nil {
		t.Fatal("GenerateFusion ignored MaxMachines")
	}
	after := core.GenerationCounters()
	if d, l := after.Descents-before.Descents, after.Levels-before.Levels; d != 0 || l != 0 {
		t.Errorf("the refused generation ran %d descents and %d levels first", d, l)
	}
	if want := "core: fusion for f=5 needs more than 2 machines (dmin currently 1)"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	F, err := core.GenerateFusion(sys, 5, core.GenerateOptions{MaxMachines: 5})
	if err != nil || len(F) != 5 {
		t.Fatalf("a budget of f − dmin + 1 = 5: %d machines, %v", len(F), err)
	}
}

// TestGenerateNegativeFaults rejects f < 0.
func TestGenerateNegativeFaults(t *testing.T) {
	sys := fig1System(t)
	if _, err := core.GenerateFusion(sys, -1, core.GenerateOptions{}); err == nil {
		t.Fatal("GenerateFusion accepted f = -1")
	}
}

// TestExhaustiveMatchesGreedySize: on small systems the greedy descent finds
// a machine as small as the exhaustive minimal (1,1)-fusion search (this is
// stronger than Theorem 5, which guarantees minimality in the order, not
// state count — but it holds on these lattices and pins the behaviour).
func TestExhaustiveMatchesGreedySize(t *testing.T) {
	for _, ms := range [][]*dfsm.Machine{
		{machines.Fig2A(), machines.Fig2B()},
		{machines.ZeroCounter(), machines.OneCounter()},
	} {
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		best, err := core.ExhaustiveMinimalFusions(sys, 100000)
		if err != nil {
			t.Fatalf("exhaustive: %v", err)
		}
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		greedy := core.GreedyDescent(sys, g.WeakestEdges())
		if greedy.NumBlocks() > best[0].NumBlocks() {
			t.Errorf("greedy found %d states, exhaustive minimum is %d",
				greedy.NumBlocks(), best[0].NumBlocks())
		}
	}
}

// TestEnumerateClosedPartitionsFig2 sanity-checks the lattice enumeration
// (partition.ClosedPartitions) on the Fig. 2 top: it contains ⊤, ⊥, and
// the partitions of A, B and M1, and every enumerated partition is closed.
func TestEnumerateClosedPartitionsFig2(t *testing.T) {
	sys := fig2System(t)
	all, err := partition.ClosedPartitions(sys.Top, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"top": partition.Singletons(4).Key(),
		"bot": partition.Single(4).Key(),
		"A":   sys.Parts[0].Key(),
		"B":   sys.Parts[1].Key(),
		"M1":  fig2M1(t, sys).Key(),
	}
	have := map[string]bool{}
	for _, p := range all {
		if !partition.IsClosed(sys.Top, p) {
			t.Fatalf("enumeration produced non-closed partition %s", p)
		}
		have[p.Key()] = true
	}
	for name, key := range want {
		if !have[key] {
			t.Errorf("lattice enumeration is missing %s", name)
		}
	}
	if len(all) < 5 {
		t.Errorf("lattice has only %d nodes; expected at least ⊤, ⊥, A, B, M1", len(all))
	}
}

// TestGenerateFusionRandomSystems is a randomized stress test: for random
// machine systems, the generated set must always be a fusion of the
// requested tolerance with the Theorem 5 cardinality.
func TestGenerateFusionRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		ms := []*dfsm.Machine{
			dfsm.RandomMachine(rng, "X", 2+rng.Intn(3), []string{"a", "b"}),
			dfsm.RandomMachine(rng, "Y", 2+rng.Intn(3), []string{"a", "b"}),
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f := 1 + rng.Intn(2)
		F, err := core.GenerateFusion(sys, f, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ok, err := sys.IsFusion(F, f)
		if err != nil || !ok {
			t.Fatalf("trial %d: generated set is not an (f=%d)-fusion: %v %v", trial, f, ok, err)
		}
		d := sys.Dmin()
		want := f - d + 1
		if want < 0 {
			want = 0
		}
		if len(F) != want {
			t.Errorf("trial %d: %d machines, want %d (f=%d dmin=%d)", trial, len(F), want, f, d)
		}
	}
}
