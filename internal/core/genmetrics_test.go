package core

import (
	"testing"

	"repro/internal/dfsm"
	"repro/internal/machines"
)

// TestGenerationCounters: GenerateFusion advances the process-wide
// counters — runs, descents and the DescentState reuse counters.
func TestGenerationCounters(t *testing.T) {
	sys, err := NewSystem(machineSet(t, "MESI", "TCP"))
	if err != nil {
		t.Fatal(err)
	}
	before := GenerationCounters()
	F, err := GenerateFusion(sys, 2, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := GenerationCounters()
	if after.Runs != before.Runs+1 {
		t.Fatalf("Runs advanced by %d, want 1", after.Runs-before.Runs)
	}
	if got := after.Descents - before.Descents; got != int64(len(F)) {
		t.Fatalf("Descents advanced by %d, want %d (one per generated machine)", got, len(F))
	}
	// MESI×TCP has a 24-state top, so the descent stats must have
	// accumulated real work.
	if after.Levels <= before.Levels || after.ColdClosures <= before.ColdClosures {
		t.Fatalf("incremental counters idle: %+v vs %+v", after, before)
	}
	// No ⊤-closure cache serves a descent (the carried level-0 verdicts
	// count as implied cascades), so the deprecated TopCacheHits never
	// advances.
	if after.TopCacheHits != before.TopCacheHits {
		t.Fatalf("TopCacheHits advanced by %d across %d descents; the ⊤-closure cache is gone",
			after.TopCacheHits-before.TopCacheHits, len(F))
	}
	// The level-0 pair-graph pass must have decided pairs without their
	// own cascade on a top this size, and the split accounts for this
	// run's cold closures exactly (the invariant holds per descent, so it
	// holds on deltas).
	if after.ImpliedCascades <= before.ImpliedCascades {
		t.Fatalf("pair-graph pass idle on a 36-state top: %+v vs %+v", after, before)
	}
	split := (after.ImpliedCascades - before.ImpliedCascades) +
		(after.SeededCascades - before.SeededCascades) +
		(after.ColdCascades - before.ColdCascades)
	if got := after.ColdClosures - before.ColdClosures; split != got {
		t.Fatalf("cascade split advanced by %d, cold closures by %d; want equal", split, got)
	}
}

// TestGenerationCountersSmallTop: a top far below the 16-state gate that
// once sent small tops down an uncounted cold path (Fig. 1's 9 states)
// now descends through a DescentState like any other, so every descent
// counter advances, level 0 closes all 36 pairs of ⊤ per descent, and
// the cascade split accounts for them exactly.
func TestGenerationCountersSmallTop(t *testing.T) {
	sys, err := NewSystem(machineSet(t, "0-Counter", "1-Counter"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 9 {
		t.Fatalf("Fig. 1 top has %d states, want 9", sys.N())
	}
	before := GenerationCounters()
	F, err := GenerateFusion(sys, 2, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := GenerationCounters()
	descents := after.Descents - before.Descents
	if descents != int64(len(F)) || descents == 0 {
		t.Fatalf("Descents advanced by %d for %d machines", descents, len(F))
	}
	if got := after.ColdClosures - before.ColdClosures; got != 36*descents {
		t.Fatalf("ColdClosures advanced by %d over %d descents, want %d", got, descents, 36*descents)
	}
	if after.Levels-before.Levels < descents {
		t.Fatalf("Levels advanced by %d over %d descents", after.Levels-before.Levels, descents)
	}
	split := (after.ImpliedCascades - before.ImpliedCascades) +
		(after.SeededCascades - before.SeededCascades) +
		(after.ColdCascades - before.ColdCascades)
	if got := after.ColdClosures - before.ColdClosures; split != got {
		t.Fatalf("cascade split advanced by %d, cold closures by %d; want equal", split, got)
	}
}

func machineSet(t *testing.T, names ...string) []*dfsm.Machine {
	t.Helper()
	ms := make([]*dfsm.Machine, len(names))
	for i, n := range names {
		m, err := machines.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}
