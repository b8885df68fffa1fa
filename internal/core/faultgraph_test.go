package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/machines"
	"repro/internal/partition"
)

func TestFaultGraphFig4(t *testing.T) {
	// Reproduce the structure of Fig. 4 on the reconstructed Fig. 2 system:
	// G({A}) has exactly one zero-weight edge (the pair A does not
	// separate), G({A,B}) has dmin 1, and adding M1 raises dmin to 2.
	sys := fig2System(t)
	a, b := sys.Parts[0], sys.Parts[1]
	m1 := fig2M1(t, sys)

	gA := core.BuildFaultGraph(sys.N(), []partition.P{a})
	if gA.Dmin() != 0 {
		t.Errorf("dmin(G({A})) = %d, want 0 (A merges two top states)", gA.Dmin())
	}
	zero := 0
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			w := gA.Weight(i, j)
			if w == 0 {
				zero++
			}
			if w < 0 || w > 1 {
				t.Errorf("G({A}) edge (%d,%d) weight %d out of range", i, j, w)
			}
		}
	}
	if zero != 1 {
		t.Errorf("G({A}) has %d zero edges, want 1 (Fig. 4(i): only (t0,t3))", zero)
	}

	gAB := core.BuildFaultGraph(sys.N(), []partition.P{a, b})
	if gAB.Dmin() != 1 {
		t.Errorf("dmin(G({A,B})) = %d, want 1 (Fig. 4(ii))", gAB.Dmin())
	}

	gABM1 := core.BuildFaultGraph(sys.N(), []partition.P{a, b, m1})
	if gABM1.Dmin() != 2 {
		t.Errorf("dmin(G({A,B,M1})) = %d, want 2 ({A,B,M1} tolerates one fault, Section 4)", gABM1.Dmin())
	}

	top := partition.Singletons(sys.N())
	gABM1Top := core.BuildFaultGraph(sys.N(), []partition.P{a, b, m1, top})
	if gABM1Top.Dmin() != 3 {
		t.Errorf("dmin(G({A,B,M1,⊤})) = %d, want 3 (Fig. 4(iv))", gABM1Top.Dmin())
	}
}

func TestFaultGraphAddRemoveInverse(t *testing.T) {
	sys := fig2System(t)
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	before := g.String()
	m1 := fig2M1(t, sys)
	g.Add(m1)
	g.Remove(m1)
	if got := g.String(); got != before {
		t.Fatalf("Add+Remove is not the identity:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

func TestFaultGraphWeakestEdges(t *testing.T) {
	sys := fig2System(t)
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	weak := g.WeakestEdges()
	if len(weak) == 0 {
		t.Fatal("no weakest edges on a multi-state graph")
	}
	d := g.Dmin()
	for _, e := range weak {
		if g.Weight(e.I, e.J) != d {
			t.Errorf("weakest edge (%d,%d) has weight %d, dmin %d", e.I, e.J, g.Weight(e.I, e.J), d)
		}
	}
	// Every edge at weight dmin must be listed.
	count := 0
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			if g.Weight(i, j) == d {
				count++
			}
		}
	}
	if count != len(weak) {
		t.Errorf("WeakestEdges returned %d edges, graph has %d at dmin", len(weak), count)
	}
}

func TestFaultGraphEdgesAtMost(t *testing.T) {
	sys := fig2System(t)
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	all := g.EdgesAtMost(1 << 30)
	if want := sys.N() * (sys.N() - 1) / 2; len(all) != want {
		t.Fatalf("EdgesAtMost(∞) returned %d edges, want %d", len(all), want)
	}
	none := g.EdgesAtMost(-1)
	if len(none) != 0 {
		t.Fatalf("EdgesAtMost(-1) returned %d edges, want 0", len(none))
	}
}

func TestFaultGraphSingleState(t *testing.T) {
	g := core.NewFaultGraph(1)
	if g.Dmin() < 1<<30 {
		t.Errorf("single-state dmin = %d, want max int", g.Dmin())
	}
	if len(g.WeakestEdges()) != 0 {
		t.Error("single-state graph has weakest edges")
	}

	// ⊥ separates nothing, so a graph that has had only ⊥ added keeps
	// dmin 0 with every edge weakest.
	const n = 5
	bot := core.BuildFaultGraph(n, []partition.P{partition.Single(n), partition.Single(n)})
	if bot.Dmin() != 0 {
		t.Errorf("dmin after adding only ⊥ = %d, want 0", bot.Dmin())
	}
	if got, want := bot.WeakestEdges(), bot.EdgesAtMost(1<<30); !slices.Equal(got, want) {
		t.Errorf("weakest edges after adding only ⊥ = %v, want every edge %v", got, want)
	}
}

// mustPanic fails the test unless f panics with a message containing want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to mention %q", name, msg, want)
		}
	}()
	f()
}

// TestFaultGraphPanics covers the checks that reject misuse: a partition
// over the wrong number of states, and removing a machine that was never
// added (which would drive an edge weight negative).
func TestFaultGraphPanics(t *testing.T) {
	const n = 4
	p := partition.MustFromBlocks(n, [][]int{{0, 1}, {2, 3}})
	wrong := partition.Singletons(n + 1)
	g := core.BuildFaultGraph(n, []partition.P{p})
	mustPanic(t, "Add over the wrong n", "adding partition over 5 elements", func() { g.Add(wrong) })
	mustPanic(t, "Remove over the wrong n", "removing partition over 5 elements", func() { g.Remove(wrong) })
	mustPanic(t, "Remove of a never-added machine", "never added", func() {
		g.Remove(partition.MustFromBlocks(n, [][]int{{0, 2}, {1, 3}}))
	})
	mustPanic(t, "NewFaultGraph(0)", "over 0 states", func() { core.NewFaultGraph(0) })
}

// TestWeakestEdgesOneAllocation pins WeakestEdges to a single, exactly
// sized allocation on the 176-state top of MESI, TCP, A and B.
func TestWeakestEdgesOneAllocation(t *testing.T) {
	ms := make([]*dfsm.Machine, 0, 4)
	for _, name := range []string{"MESI", "TCP", "A", "B"} {
		m, err := machines.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	sys, err := core.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 176 {
		t.Fatalf("top has %d states, want 176", sys.N())
	}
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	if w := g.WeakestEdges(); len(w) != cap(w) {
		t.Errorf("WeakestEdges returned %d edges in a slice of capacity %d", len(w), cap(w))
	}
	if allocs := testing.AllocsPerRun(20, func() { g.WeakestEdges() }); allocs != 1 {
		t.Errorf("WeakestEdges allocates %v times, want 1", allocs)
	}
}

func TestFaultGraphString(t *testing.T) {
	g := core.NewFaultGraph(2)
	s := g.String()
	if !strings.Contains(s, "dmin=0") {
		t.Errorf("String() = %q, want dmin=0 mentioned", s)
	}
}

// TestFaultGraphWeightSymmetric is a property test: Weight(i,j) equals
// Weight(j,i) and is bounded by the number of machines, for random
// partition sets.
func TestFaultGraphWeightSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		k := 1 + r.Intn(4)
		parts := make([]partition.P, k)
		for i := range parts {
			assign := make([]int, n)
			for j := range assign {
				assign[j] = r.Intn(n)
			}
			parts[i] = partition.FromAssignment(assign)
		}
		g := core.BuildFaultGraph(n, parts)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w := g.Weight(i, j)
				if w != g.Weight(j, i) {
					return false
				}
				if w < 0 || w > k {
					return false
				}
				if i == j && w != 0 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCoversMatchesDefinition: Covers(p, edges) iff p separates each pair.
func TestCoversMatchesDefinition(t *testing.T) {
	p := partition.MustFromBlocks(4, [][]int{{0, 1}, {2}, {3}})
	if core.Covers(p, []core.Edge{{I: 0, J: 1}}) {
		t.Error("Covers says p separates 0,1 but they share a block")
	}
	if !core.Covers(p, []core.Edge{{I: 0, J: 2}, {I: 2, J: 3}}) {
		t.Error("Covers says p does not separate (0,2),(2,3)")
	}
	if !core.Covers(p, nil) {
		t.Error("Covers of the empty edge set must be true")
	}
}

// TestDminMonotoneUnderAdd is the property behind Theorems 3–5: adding a
// machine never lowers any edge weight and raises each by at most one.
// In the covering case, where the added machine separates every weakest
// edge, dmin rises by exactly one and every old weakest edge is still
// weakest: the weakest-edge lists of Algorithm 2's successive descents
// nest, which is what lets a descent carry the previous one's ⊤ verdicts.
// The covering case runs on random graphs and on each Table 1 suite with
// the machines GenerateFusion returns for it.
func TestDminMonotoneUnderAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		assign := make([]int, n)
		for j := range assign {
			assign[j] = rng.Intn(3)
		}
		base := partition.FromAssignment(assign)
		g := core.BuildFaultGraph(n, []partition.P{base})
		d0 := g.Dmin()
		for j := range assign {
			assign[j] = rng.Intn(3)
		}
		g.Add(partition.FromAssignment(assign))
		d1 := g.Dmin()
		if d1 < d0 || d1 > d0+1 {
			t.Fatalf("dmin went %d -> %d after adding one machine", d0, d1)
		}

		// The covering case: move the second state of every weakest edge
		// the draw merges into a block of its own.
		for j := range assign {
			assign[j] = rng.Intn(3)
		}
		for _, e := range g.WeakestEdges() {
			if assign[e.I] == assign[e.J] {
				assign[e.J] = n + e.J
			}
		}
		assertCoveringAddNests(t, fmt.Sprintf("random trial %d", trial), g, partition.FromAssignment(assign))
	}

	for _, s := range machines.PaperSuites() {
		ms, err := machines.SuiteMachines(s)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		F, err := core.GenerateFusion(sys, s.F, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		for i, m := range F {
			assertCoveringAddNests(t, fmt.Sprintf("%s machine %d", s.Name, i), g, m)
		}
	}
}

// assertCoveringAddNests adds m, which must separate every weakest edge
// of g, to g and fails unless dmin rose by exactly one and every old
// weakest edge is still weakest.
func assertCoveringAddNests(t *testing.T, label string, g *core.FaultGraph, m partition.P) {
	t.Helper()
	old, d0 := g.WeakestEdges(), g.Dmin()
	if !core.Covers(m, old) {
		t.Fatalf("%s: the added machine leaves a weakest edge merged", label)
	}
	g.Add(m)
	if g.Dmin() != d0+1 {
		t.Fatalf("%s: dmin went %d -> %d after a covering add, want %d", label, d0, g.Dmin(), d0+1)
	}
	weakest := g.WeakestEdges()
	for _, e := range old {
		if _, found := slices.BinarySearchFunc(weakest, e, func(a, b core.Edge) int {
			if a.I != b.I {
				return a.I - b.I
			}
			return a.J - b.J
		}); !found {
			t.Fatalf("%s: weakest edge %v of weight %d is no longer weakest (weight %d, dmin %d)",
				label, e, d0, g.Weight(e.I, e.J), g.Dmin())
		}
	}
}

// weakestEdgesRescan is the reference implementation of WeakestEdges: a
// full O(N²) scan through Weight and Dmin with no precomputed count.
// WeakestEdges, sized by the count Add and Remove keep, must reproduce its
// output exactly (same edges, same lexicographic order).
func weakestEdgesRescan(g *core.FaultGraph) []core.Edge {
	n := g.N()
	d := g.Dmin()
	var out []core.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Weight(i, j) == d {
				out = append(out, core.Edge{I: i, J: j})
			}
		}
	}
	return out
}

// TestWeakestEdgesIncrementalMatchesRescan is the equivalence property of
// the incremental fault graph: after arbitrary interleavings of Add and
// Remove, WeakestEdges equals the full-rescan reference, and every edge
// weight and Dmin equal a BuildFaultGraph rebuild from the partitions
// currently added, at every step — and so does a Clone taken
// mid-sequence.
func TestWeakestEdgesIncrementalMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		g := core.NewFaultGraph(n)
		var added []partition.P
		check := func(g *core.FaultGraph, step string) {
			got := g.WeakestEdges()
			want := weakestEdgesRescan(g)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d weakest edges, rescan finds %d", trial, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: edge %d is %v, rescan says %v", trial, step, i, got[i], want[i])
				}
			}
			rebuilt := core.BuildFaultGraph(n, added)
			if g.Dmin() != rebuilt.Dmin() {
				t.Fatalf("trial %d %s: dmin %d, rebuild says %d", trial, step, g.Dmin(), rebuilt.Dmin())
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if g.Weight(i, j) != rebuilt.Weight(i, j) {
						t.Fatalf("trial %d %s: weight(%d,%d) = %d, rebuild says %d",
							trial, step, i, j, g.Weight(i, j), rebuilt.Weight(i, j))
					}
				}
			}
		}
		check(g, "empty")
		for op := 0; op < 12; op++ {
			if len(added) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(added))
				g.Remove(added[i])
				added = append(added[:i], added[i+1:]...)
			} else {
				assign := make([]int, n)
				for j := range assign {
					assign[j] = rng.Intn(1 + rng.Intn(n))
				}
				p := partition.FromAssignment(assign)
				g.Add(p)
				added = append(added, p)
			}
			check(g, "op")
			check(g.Clone(), "clone")
		}
	}
}
