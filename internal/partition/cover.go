package partition

import (
	"repro/internal/dfsm"
	"repro/internal/exec"
)

// LowerCover computes the lower cover of the machine corresponding to the
// closed partition p (Definition 2 of the paper): the maximal closed
// partitions strictly coarser than p. Following Lee & Yannakakis, each
// candidate arises by merging one pair of blocks of p and closing; the
// cover keeps the maximal (finest) candidates after deduplication.
//
// Complexity: O(B²) closures where B is the number of blocks of p; each
// closure is O(N·|Σ|·α). The per-pair closures are independent, so they are
// fanned out across the shared worker pool — this is the hot inner loop of
// Algorithm 2.
func LowerCover(top *dfsm.Machine, p P) []P {
	return LowerCoverOn(exec.Default(), top, p)
}

// LowerCoverOn is LowerCover drawing its parallelism from the given
// persistent pool instead of the package default. Callers that own an
// engine (a dedicated pool) route through here so the cover's closure
// fan-out runs on their capacity, not the shared default's.
func LowerCoverOn(pool *exec.Pool, top *dfsm.Machine, p P) []P {
	uniq := MergeClosuresOn(pool, top, p, nil)

	// Keep maximal elements: drop c if some other candidate d is strictly
	// finer than c (c < d means c is coarser, hence not maximal).
	var cover []P
	for i, c := range uniq {
		maximal := true
		for j, d := range uniq {
			if i == j {
				continue
			}
			if c.StrictlyRefinedBy(d) {
				maximal = false
				break
			}
		}
		if maximal {
			cover = append(cover, c)
		}
	}
	return cover
}

// MergeClosuresOn returns the deduplicated closures of all single-pair
// block merges of p that separate every forbidden pair (nil keeps them
// all), without the maximality filter of LowerCover, in block-pair order
// regardless of the pool's worker count.
//
// Every closed partition strictly coarser than p is ≤ one of the
// unfiltered merge closures, so descending through merge closures explores
// the same down-set as descending through the lower cover — Algorithm 2
// uses this as its fast path (MinMergeClosureOn) because the maximality
// filter costs O(B⁴·N) comparisons at the top of large lattices while
// adding nothing to correctness (see core.GenerateFusion).
func MergeClosuresOn(pool *exec.Pool, top *dfsm.Machine, p P, forbidden [][2]int) []P {
	tasks := blockPairs(p)
	seen := NewSet(len(tasks))
	var uniq []P
	for _, r := range closePairs(pool, top, p, tasks, forbidden, nil) {
		if r.ok && seen.Add(r.cand) {
			uniq = append(uniq, r.cand)
		}
	}
	return uniq
}
