package lattice

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/machines"
	"repro/internal/partition"
)

func fig2Lattice(t *testing.T) (*core.System, *Lattice) {
	t.Helper()
	sys, err := core.NewSystem([]*dfsm.Machine{machines.Fig2A(), machines.Fig2B()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(sys.Top, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, l
}

func TestBuildFig3Lattice(t *testing.T) {
	sys, l := fig2Lattice(t)
	if l.Size() < 5 {
		t.Fatalf("lattice has %d nodes; need at least ⊤, ⊥, A, B, M1", l.Size())
	}
	// Fig. 3: the lattice contains A, B and M1, between ⊤ and ⊥.
	for name, p := range map[string]partition.P{
		"A":  sys.Parts[0],
		"B":  sys.Parts[1],
		"⊤":  partition.Singletons(sys.N()),
		"⊥":  partition.Single(sys.N()),
		"M1": partition.MustFromBlocks(sys.N(), fig2M1Blocks(t, sys)),
	} {
		if !l.Contains(p) {
			t.Errorf("lattice is missing %s", name)
		}
	}
	if l.Nodes[l.TopIndex()].NumBlocks() != sys.N() {
		t.Error("node 0 is not ⊤")
	}
	if l.Nodes[l.BottomIndex()].NumBlocks() != 1 {
		t.Error("last node is not ⊥")
	}
}

func fig2M1Blocks(t *testing.T, sys *core.System) [][]int {
	t.Helper()
	type key [2]string
	ix := map[key]int{}
	for ti, tuple := range sys.Product.Proj {
		ix[key{sys.Machines[0].StateName(tuple[0]), sys.Machines[1].StateName(tuple[1])}] = ti
	}
	var blocks [][]int
	for _, blk := range machines.Fig2M1Blocks() {
		var b []int
		for _, pr := range blk {
			b = append(b, ix[key{pr[0], pr[1]}])
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestHasseEdgesAreCovers: every Below edge is a strict order relation with
// nothing in between, and the order is acyclic by rank.
func TestHasseEdgesAreCovers(t *testing.T) {
	_, l := fig2Lattice(t)
	for i, below := range l.Below {
		for _, j := range below {
			if !l.Nodes[j].StrictlyRefinedBy(l.Nodes[i]) {
				t.Fatalf("edge %d->%d is not an order relation", j, i)
			}
			for k := range l.Nodes {
				if k == i || k == j {
					continue
				}
				if l.Nodes[k].StrictlyRefinedBy(l.Nodes[i]) && l.Nodes[j].StrictlyRefinedBy(l.Nodes[k]) {
					t.Fatalf("edge %d->%d is not a cover: %d lies between", j, i, k)
				}
			}
		}
	}
}

// TestBasisIsLowerCoverOfTop: the basis must match partition.LowerCover.
func TestBasisIsLowerCoverOfTop(t *testing.T) {
	_, l := fig2Lattice(t)
	want := partition.LowerCover(l.Top, partition.Singletons(l.Top.NumStates()))
	basis := l.Basis()
	if len(basis) != len(want) {
		t.Fatalf("basis has %d elements, LowerCover %d", len(basis), len(want))
	}
	wantKeys := map[string]bool{}
	for _, p := range want {
		wantKeys[p.Key()] = true
	}
	for _, p := range basis {
		if !wantKeys[p.Key()] {
			t.Errorf("basis element %v not in LowerCover", p)
		}
	}
}

// TestAllNodesClosedAndUnique.
func TestAllNodesClosedAndUnique(t *testing.T) {
	_, l := fig2Lattice(t)
	seen := map[string]bool{}
	for _, p := range l.Nodes {
		if !partition.IsClosed(l.Top, p) {
			t.Fatalf("lattice node %v not closed", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate node %v", p)
		}
		seen[p.Key()] = true
	}
}

func TestLatticeOfModCounters(t *testing.T) {
	// The 9-state top of the two mod-3 counters has a richer lattice; it
	// must include the SumMod3 and DiffMod3 fusion machines.
	sys, err := core.NewSystem([]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(sys.Top, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := sys.PartitionOf(machines.SumCounter(3))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sys.PartitionOf(machines.DiffCounter(3))
	if err != nil {
		t.Fatal(err)
	}
	if !l.Contains(f1) || !l.Contains(f2) {
		t.Error("counter lattice is missing F1/F2")
	}
	if l.Find(partition.Single(9)) != l.BottomIndex() {
		t.Error("bottom misplaced")
	}
	if l.Find(partition.Singletons(3)) != -1 {
		t.Error("Find matched a partition of the wrong size")
	}
}

func TestMaxNodesGuard(t *testing.T) {
	sys, err := core.NewSystem([]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sys.Top, 2); err == nil {
		t.Fatal("maxNodes guard did not trip")
	}
}

func TestDOTAndSummary(t *testing.T) {
	_, l := fig2Lattice(t)
	dot := l.DOT()
	for _, want := range []string{"digraph lattice", "⊤", "⊥", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	sum := l.Summary()
	if !strings.Contains(sum, "closed-partition lattice") {
		t.Errorf("Summary = %q", sum)
	}
}

// TestConcurrentEnumerationMatchesSerial runs partition.ClosedPartitions,
// Build's DOT and partition.LowerCover of every lattice node from several
// goroutines at once, on the Fig. 2 top, the 9-state top of two mod-3
// counters and an 8-state shift register, and requires each goroutine to
// see exactly the serial run's result. Every call takes its level-0
// scratch from the shared default pool; under -race this checks that no
// call reads another's.
func TestConcurrentEnumerationMatchesSerial(t *testing.T) {
	var tops []*dfsm.Machine
	for _, ms := range [][]*dfsm.Machine{
		{machines.Fig2A(), machines.Fig2B()},
		{machines.ZeroCounter(), machines.OneCounter()},
		{machines.ShiftRegister(3)},
	} {
		pr, err := dfsm.ReachableCrossProduct(ms)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, pr.Top)
	}
	// describe renders everything one goroutine computes for top.
	describe := func(top *dfsm.Machine) (string, error) {
		nodes, err := partition.ClosedPartitions(top, 0)
		if err != nil {
			return "", err
		}
		l, err := Build(top, 0)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, p := range nodes {
			b.WriteString(p.String())
			b.WriteString(" covers")
			for _, c := range partition.LowerCover(top, p) {
				b.WriteString(" " + c.String())
			}
			b.WriteString("\n")
		}
		b.WriteString(l.DOT())
		return b.String(), nil
	}
	want := make([]string, len(tops))
	for i, top := range tops {
		var err error
		if want[i], err = describe(top); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(tops))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range tops {
				i := (g + k) % len(tops)
				got, err := describe(tops[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("goroutine %d, top %d: result differs from the serial run", g, i)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
