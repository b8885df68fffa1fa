package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/partition"
)

// denseGraph is Definition 3 computed directly: one weight per ordered
// pair, and a machine raises the weight of every pair it separates.
type denseGraph struct {
	n int
	w [][]int
}

func newDenseGraph(n int) *denseGraph {
	w := make([][]int, n)
	for i := range w {
		w[i] = make([]int, n)
	}
	return &denseGraph{n: n, w: w}
}

// shift adds delta to every pair p separates. It reports false, and
// changes nothing, when that would take a weight below zero: a Remove of
// a machine that was never added.
func (r *denseGraph) shift(p partition.P, delta int) bool {
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if p.Separates(i, j) && r.w[i][j]+delta < 0 {
				return false
			}
		}
	}
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if p.Separates(i, j) {
				r.w[i][j] += delta
			}
		}
	}
	return true
}

func (r *denseGraph) dmin() int {
	d := math.MaxInt
	for i := 0; i < r.n; i++ {
		for j := i + 1; j < r.n; j++ {
			d = min(d, r.w[i][j])
		}
	}
	return d
}

// edgesAtMost lists the pairs of weight ≤ x in lexicographic order, nil if
// none.
func (r *denseGraph) edgesAtMost(x int) []core.Edge {
	var out []core.Edge
	for i := 0; i < r.n; i++ {
		for j := i + 1; j < r.n; j++ {
			if r.w[i][j] <= x {
				out = append(out, core.Edge{I: i, J: j})
			}
		}
	}
	return out
}

// weakest lists the pairs of weight dmin in lexicographic order.
func (r *denseGraph) weakest() []core.Edge {
	var out []core.Edge
	d := r.dmin()
	for i := 0; i < r.n; i++ {
		for j := i + 1; j < r.n; j++ {
			if r.w[i][j] == d {
				out = append(out, core.Edge{I: i, J: j})
			}
		}
	}
	return out
}

// assertDenseEqual fails unless g answers every query as the reference
// does: each Weight both ways, Dmin, WeakestEdges in order and in one
// exactly sized allocation, and EdgesAtMost around dmin.
func assertDenseEqual(t *testing.T, label string, g *core.FaultGraph, r *denseGraph) {
	t.Helper()
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if got := g.Weight(i, j); got != r.w[i][j] {
				t.Fatalf("%s: Weight(%d,%d) = %d, Definition 3 gives %d", label, i, j, got, r.w[i][j])
			}
		}
	}
	d := r.dmin()
	if g.Dmin() != d {
		t.Fatalf("%s: Dmin %d, Definition 3 gives %d", label, g.Dmin(), d)
	}
	weak := g.WeakestEdges()
	if want := r.weakest(); !slices.Equal(weak, want) {
		t.Fatalf("%s: WeakestEdges %v, Definition 3 gives %v", label, weak, want)
	}
	if len(weak) != cap(weak) {
		t.Fatalf("%s: WeakestEdges returned %d edges in a slice of capacity %d", label, len(weak), cap(weak))
	}
	if len(weak) > 0 {
		if allocs := testing.AllocsPerRun(1, func() { g.WeakestEdges() }); allocs != 1 {
			t.Fatalf("%s: WeakestEdges allocates %v times, want 1", label, allocs)
		}
	}
	xs := []int{-1, 0, 1 << 30}
	if d != math.MaxInt {
		xs = append(xs, d-1, d, d+1)
	}
	for _, x := range xs {
		if got, want := g.EdgesAtMost(x), r.edgesAtMost(x); !slices.Equal(got, want) {
			t.Fatalf("%s: EdgesAtMost(%d) %v, Definition 3 gives %v", label, x, got, want)
		}
	}
}

// randomPartition draws a partition of n states: ⊥, ⊤, or one of up to n
// random blocks.
func randomPartition(rng *rand.Rand, n int) partition.P {
	switch rng.Intn(6) {
	case 0:
		return partition.Single(n)
	case 1:
		return partition.Singletons(n)
	}
	assign := make([]int, n)
	blocks := 1 + rng.Intn(n)
	for j := range assign {
		assign[j] = rng.Intn(blocks)
	}
	return partition.FromAssignment(assign)
}

// removePanics reports whether g.Remove(p) panicked.
func removePanics(g *core.FaultGraph, p partition.P) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	g.Remove(p)
	return false
}

// TestFaultGraphMatchesDefinition3 runs random sequences of Build, Add
// and Remove over random partitions against a dense Definition 3
// reference, on 1 to 13 states, and checks every query after every step,
// on the graph and on a Clone. The partitions include ⊥, ⊤, repeats of an
// added machine, and none at all (a graph built from no machine). Some
// Removes are of machines never added: every Remove must panic exactly
// when the reference would take a weight below zero, and then leave the
// graph as it was.
func TestFaultGraphMatchesDefinition3(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	panics := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%13
		var parts []partition.P
		for k := rng.Intn(4); k > 0; k-- {
			parts = append(parts, randomPartition(rng, n))
		}
		g, r := core.BuildFaultGraph(n, parts), newDenseGraph(n)
		for _, p := range parts {
			r.shift(p, 1)
		}
		added := slices.Clone(parts)
		assertDenseEqual(t, fmt.Sprintf("trial %d (n=%d) build of %d", trial, n, len(parts)), g, r)
		for op := 0; op < 10; op++ {
			label := fmt.Sprintf("trial %d (n=%d) op %d", trial, n, op)
			switch k := rng.Intn(5); {
			case k <= 1: // remove an added machine, or any machine
				p, i := randomPartition(rng, n), -1
				if k == 0 && len(added) > 0 {
					i = rng.Intn(len(added))
					p = added[i]
				}
				ok := r.shift(p, -1)
				if removePanics(g, p) == ok {
					t.Fatalf("%s: Remove(%s) panicked %v, Definition 3 takes a weight below zero %v", label, p, ok, !ok)
				}
				if !ok {
					panics++
				} else if i >= 0 {
					added = slices.Delete(added, i, i+1)
				}
			case k == 2 && len(added) > 0: // add a machine again
				p := added[rng.Intn(len(added))]
				g.Add(p)
				r.shift(p, 1)
				added = append(added, p)
			default:
				p := randomPartition(rng, n)
				g.Add(p)
				r.shift(p, 1)
				added = append(added, p)
			}
			assertDenseEqual(t, label, g, r)
			assertDenseEqual(t, label+" clone", g.Clone(), r)
		}
	}
	if panics == 0 {
		t.Fatal("no Remove of a never-added machine panicked; the check is vacuous")
	}
}

// TestGrownWeakestListMatchesGraph replays Algorithm 2's weakest-edge list
// over the machines GenerateFusion returns: the first list is collected
// from the block buckets of A, and each machine but the last grows it by
// append. At every descent the list must hold exactly the graph's weakest
// edges, each once, and extend the previous descent's list; the first
// list is exactly sized. After the last machine, dmin(A ∪ F) = f + 1.
// Runs on the Table 1 suites, the oracle test's 30 random systems and the
// 64-state top of three mod-4 counters at f = 2.
func TestGrownWeakestListMatchesGraph(t *testing.T) {
	type input struct {
		name string
		sys  *core.System
		f    int
	}
	var ins []input
	for _, s := range machines.PaperSuites() {
		ms, err := machines.SuiteMachines(s)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{s.Name, sys, s.F})
	}
	rng := rand.New(rand.NewSource(2009))
	for trial := 0; trial < oracleTrials; trial++ {
		sys := oracleSystem(t, rng, trial%2 == 1)
		ins = append(ins, input{fmt.Sprintf("oracle trial %d", trial), sys, sys.Dmin() + trial%3})
	}
	sensors, err := core.NewSystem(machines.SensorCounters(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	ins = append(ins, input{"SensorCounters(3,4)", sensors, 2})

	grown := 0
	for _, in := range ins {
		F, err := core.GenerateFusion(in.sys, in.f, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(F) == 0 {
			t.Fatalf("%s: no machine generated at f = %d", in.name, in.f)
		}
		g := core.BuildFaultGraph(in.sys.N(), in.sys.Parts)
		list := core.WeakestPairs(g, in.sys.Parts)
		if len(list) != cap(list) {
			t.Fatalf("%s: first list has %d pairs in a slice of capacity %d", in.name, len(list), cap(list))
		}
		for k, m := range F {
			label := fmt.Sprintf("%s descent %d", in.name, k)
			assertSamePairs(t, label, list, g.WeakestEdges())
			if k == len(F)-1 {
				break
			}
			prev := slices.Clone(list)
			list = core.AddWeakest(g, m, list)
			if len(list) < len(prev) || !slices.Equal(list[:len(prev)], prev) {
				t.Fatalf("%s: the grown list does not extend the previous one", label)
			}
			if len(list) > len(prev) {
				grown++
			}
		}
		if d := in.sys.DminWith(F); d != in.f+1 {
			t.Fatalf("%s: dmin(A ∪ F) = %d, want f + 1 = %d", in.name, d, in.f+1)
		}
	}
	if grown == 0 {
		t.Fatal("no descent grew the list; the prefix check is vacuous")
	}
}

// assertSamePairs fails unless list holds each edge of want exactly once
// and nothing else.
func assertSamePairs(t *testing.T, label string, list [][2]int, want []core.Edge) {
	t.Helper()
	if len(list) != len(want) {
		t.Fatalf("%s: list of %d pairs, %d weakest edges", label, len(list), len(want))
	}
	got := make([]core.Edge, len(list))
	for i, e := range list {
		if e[0] >= e[1] {
			t.Fatalf("%s: pair %v is not ordered", label, e)
		}
		got[i] = core.Edge{I: e[0], J: e[1]}
	}
	slices.SortFunc(got, func(a, b core.Edge) int {
		if a.I != b.I {
			return a.I - b.I
		}
		return a.J - b.J
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: list holds other pairs than the weakest edges", label)
	}
}
