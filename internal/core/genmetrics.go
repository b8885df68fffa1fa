package core

import (
	"sync/atomic"

	"repro/internal/partition"
)

// Process-wide generation-path counters, accumulated by GenerateFusion
// across all engines and tenants. They answer the observability question
// the per-cluster sim counters cannot: how much Algorithm 2 work has
// this process done, and how much of it did the incremental descent
// engine (partition.DescentState) save. fusiond exports them on its
// Prometheus-style /metrics endpoint.
var genCounters struct {
	runs         atomic.Int64 // GenerateFusion calls
	descents     atomic.Int64 // outer iterations (one generated machine each)
	levels       atomic.Int64 // descent levels evaluated (incremental descents)
	coldClosures atomic.Int64 // from-scratch merge closures
	seededJoins  atomic.Int64 // re-evaluations served as join(survivor, m′)
	prunedSkips  atomic.Int64 // pair evaluations skipped by violation pruning

	// Level-0 pair-graph pass: the split of ColdClosures by how each pair
	// resolved (implied + seeded + cold == coldClosures on incremental
	// descents).
	impliedCascades atomic.Int64 // ran no cascade of its own: shared its SCC's verdict or a failed successor's
	seededCascades  atomic.Int64 // its SCC's cascade absorbed at least one finished successor closure
	coldCascades    atomic.Int64 // its SCC's cascade ran with no successor closure to absorb
}

// GenerationStats is a point-in-time copy of the process-wide generation
// counters. All fields are monotonic. The DescentState reuse fields
// (Levels and below) only accumulate on incremental descents — small
// tops below the incremental gate run cold and contribute to Runs and
// Descents alone.
type GenerationStats struct {
	Runs         int64
	Descents     int64
	Levels       int64
	ColdClosures int64
	SeededJoins  int64
	PrunedSkips  int64

	// Deprecated: the cross-descent ⊤-closure cache is gone; every
	// descent evaluates its own level 0, so TopCacheHits is always zero.
	TopCacheHits int64

	// Pair-graph pass split of ColdClosures (see DescentStats): how each
	// from-scratch evaluation resolved, with
	// ImpliedCascades+SeededCascades+ColdCascades == ColdClosures. The
	// pass is serial and ordered by the task list, so each value is as
	// deterministic as the produced partitions (TestTable1DescentWork pins
	// them per Table 1 suite).
	ImpliedCascades int64
	SeededCascades  int64
	ColdCascades    int64
}

// GenerationCounters snapshots the process-wide generation counters.
func GenerationCounters() GenerationStats {
	return GenerationStats{
		Runs:         genCounters.runs.Load(),
		Descents:     genCounters.descents.Load(),
		Levels:       genCounters.levels.Load(),
		ColdClosures: genCounters.coldClosures.Load(),
		SeededJoins:  genCounters.seededJoins.Load(),
		PrunedSkips:  genCounters.prunedSkips.Load(),

		ImpliedCascades: genCounters.impliedCascades.Load(),
		SeededCascades:  genCounters.seededCascades.Load(),
		ColdCascades:    genCounters.coldCascades.Load(),
	}
}

// recordDescent folds one completed descent's reuse stats into the
// process-wide counters (a handful of atomic adds — noise next to the
// closures the descent just ran).
func recordDescent(s partition.DescentStats) {
	genCounters.levels.Add(int64(s.Levels))
	genCounters.coldClosures.Add(int64(s.ColdClosures))
	genCounters.seededJoins.Add(int64(s.SeededJoins))
	genCounters.prunedSkips.Add(int64(s.PrunedSkips))
	genCounters.impliedCascades.Add(int64(s.ImpliedCascades))
	genCounters.seededCascades.Add(int64(s.SeededCascades))
	genCounters.coldCascades.Add(int64(s.ColdCascades))
}
