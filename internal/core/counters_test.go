package core

import (
	"testing"

	"repro/internal/machines"
)

// descentWork is a generation's work: every descent counter, each of
// which depends only on the machines and f, never on pool scheduling.
// The level-0 pair-graph pass is serial, so the implied/seeded/cold
// split of ColdClosures is as deterministic as the rest.
type descentWork struct {
	Levels, ColdClosures, SeededJoins, PrunedSkips, TopCacheHits int64
	ImpliedCascades, SeededCascades, ColdCascades                int64
}

// TestTable1DescentWork pins how much work Algorithm 2 does on each
// Table 1 suite. The fusions are pinned elsewhere; this catches a kernel
// or descent change that keeps the output but evaluates more (or
// different) pairs — a lost pruning, a seeded join turned cold, an SCC
// of the pair graph that runs more cascades than it needs. Every
// descent closes its own level 0, so a suite with k generated machines
// pays k level-0 fan-outs and the deprecated TopCacheHits stays zero.
func TestTable1DescentWork(t *testing.T) {
	want := map[string]descentWork{
		"tab1.1": {Levels: 4, ColdClosures: 20592, SeededJoins: 0, PrunedSkips: 2256, TopCacheHits: 0,
			ImpliedCascades: 20416, SeededCascades: 126, ColdCascades: 50},
		"tab1.2": {Levels: 5, ColdClosures: 6048, SeededJoins: 16, PrunedSkips: 600, TopCacheHits: 0,
			ImpliedCascades: 5997, SeededCascades: 21, ColdCascades: 30},
		"tab1.3": {Levels: 18, ColdClosures: 32220, SeededJoins: 133, PrunedSkips: 21667, TopCacheHits: 0,
			ImpliedCascades: 31096, SeededCascades: 810, ColdCascades: 314},
		"tab1.4": {Levels: 2, ColdClosures: 15400, SeededJoins: 0, PrunedSkips: 8646, TopCacheHits: 0,
			ImpliedCascades: 15393, SeededCascades: 0, ColdCascades: 7},
		"tab1.5": {Levels: 4, ColdClosures: 5852, SeededJoins: 11, PrunedSkips: 3619, TopCacheHits: 0,
			ImpliedCascades: 5842, SeededCascades: 0, ColdCascades: 10},
	}
	for _, s := range machines.PaperSuites() {
		sys, err := NewSystem(machineSet(t, s.Machines...))
		if err != nil {
			t.Fatal(err)
		}
		before := GenerationCounters()
		if _, err := GenerateFusion(sys, s.F, GenerateOptions{}); err != nil {
			t.Fatal(err)
		}
		after := GenerationCounters()
		got := descentWork{
			Levels:       after.Levels - before.Levels,
			ColdClosures: after.ColdClosures - before.ColdClosures,
			SeededJoins:  after.SeededJoins - before.SeededJoins,
			PrunedSkips:  after.PrunedSkips - before.PrunedSkips,
			TopCacheHits: after.TopCacheHits - before.TopCacheHits,

			ImpliedCascades: after.ImpliedCascades - before.ImpliedCascades,
			SeededCascades:  after.SeededCascades - before.SeededCascades,
			ColdCascades:    after.ColdCascades - before.ColdCascades,
		}
		if got != want[s.Name] {
			t.Errorf("%s: descent work %+v, want %+v", s.Name, got, want[s.Name])
		}
	}
}
