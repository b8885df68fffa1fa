package core

import "repro/internal/partition"

// Hooks for the external tests: Algorithm 2's weakest-edge list as
// generateWith collects it and grows it.

// WeakestPairs returns g's weakest edges as generateWith's first forbidden
// list; g must have been built from parts.
func WeakestPairs(g *FaultGraph, parts []partition.P) [][2]int { return g.weakestPairs(parts) }

// AddWeakest adds m to g and returns weakest grown as generateWith grows
// its forbidden list.
func AddWeakest(g *FaultGraph, m partition.P, weakest [][2]int) [][2]int {
	return g.addWeakest(m, weakest)
}
