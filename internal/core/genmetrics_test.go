package core

import (
	"testing"

	"repro/internal/dfsm"
	"repro/internal/machines"
)

// TestGenerationCounters: GenerateFusion advances the process-wide
// counters — runs and descents always, the DescentState reuse counters
// whenever the top is large enough for the incremental engine.
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
	// MESI×TCP has a 24-state top — well past the incremental gate — so
	// the descent stats must have accumulated real work.
	if after.Levels <= before.Levels || after.ColdClosures <= before.ColdClosures {
		t.Fatalf("incremental counters idle: %+v vs %+v", after, before)
	}
	// Every descent closes its own level 0: nothing is served across
	// descents, so the deprecated TopCacheHits never advances.
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

// TestGenerationCountersNoPairMemo: the NoPairMemo ablation keeps the
// incremental engine but reports every cascade cold — and stays out of
// the fusion cache (a cached ablation run would measure nothing).
func TestGenerationCountersNoPairMemo(t *testing.T) {
	sys, err := NewSystem(machineSet(t, "MESI", "TCP"))
	if err != nil {
		t.Fatal(err)
	}
	before := GenerationCounters()
	want, err := GenerateFusion(sys, 2, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid := GenerationCounters()
	got, err := GenerateFusion(sys, 2, GenerateOptions{NoPairMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	after := GenerationCounters()

	if len(got) != len(want) {
		t.Fatalf("NoPairMemo produced %d machines, memoized %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("machine %d differs: NoPairMemo %s, memoized %s", i, got[i], want[i])
		}
	}
	if d := after.ImpliedCascades - mid.ImpliedCascades; d != 0 {
		t.Fatalf("NoPairMemo run recorded %d implied cascades", d)
	}
	if d := after.SeededCascades - mid.SeededCascades; d != 0 {
		t.Fatalf("NoPairMemo run recorded %d seeded cascades", d)
	}
	if cold, closures := after.ColdCascades-mid.ColdCascades, after.ColdClosures-mid.ColdClosures; cold != closures {
		t.Fatalf("NoPairMemo run: %d cold cascades vs %d cold closures; want equal", cold, closures)
	}
	if mid.ImpliedCascades <= before.ImpliedCascades {
		t.Fatalf("memoized reference run shared nothing: %+v vs %+v", mid, before)
	}
	if (GenerateOptions{NoPairMemo: true}).Cacheable() {
		t.Fatal("NoPairMemo requests must not be cacheable")
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
