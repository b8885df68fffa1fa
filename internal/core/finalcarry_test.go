package core

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/machines"
	"repro/internal/partition"
)

// carriedPairs returns the number of ⊤ pairs d's carry holds, and whether
// it names a top at all.
func carriedPairs(d *partition.DescentState) (int, bool) {
	c := reflect.ValueOf(d).Elem().FieldByName("carry")
	return c.FieldByName("nodes").Len(), !c.FieldByName("top").IsNil()
}

// TestFinalDescentKeepsNoCarry: Theorem 5 fixes the number of descents up
// front, so an f = 1 generation on a top with dmin(A) = 1 runs one descent,
// the last, and its level-0 pass at ⊤ keeps no carry. On the pair-rich
// top of three mod-4 counters the same level 0 in a descent that is not
// the last carries thousands of ⊤ pairs, so the check is not vacuous.
func TestFinalDescentKeepsNoCarry(t *testing.T) {
	sys, err := NewSystem(machines.SensorCounters(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dmin() != 1 {
		t.Fatalf("dmin(A) = %d, want 1", sys.Dmin())
	}
	d := partition.NewDescentState()
	F, err := generateWith(sys, 1, GenerateOptions{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(F) != 1 {
		t.Fatalf("f = 1 generated %d machines, want 1", len(F))
	}
	if pairs, named := carriedPairs(d); pairs != 0 || named || heldByCarry(d) != 0 {
		t.Fatalf("the only descent left a carry: %d pairs, top named %v, %d closures", pairs, named, heldByCarry(d))
	}

	d.Reset()
	g := BuildFaultGraph(sys.N(), sys.Parts)
	partition.MinMergeClosureOn(exec.Default(), d, sys.Top, partition.Singletons(sys.N()), g.weakestPairs(sys.Parts))
	if pairs, _ := carriedPairs(d); pairs < sys.N() {
		t.Fatalf("a level 0 at ⊤ outside a final descent carries %d pairs; want at least N = %d", pairs, sys.N())
	}
}
