package partition

import (
	"fmt"

	"repro/internal/dfsm"
	"repro/internal/exec"
)

// LowerCover computes the lower cover of the machine corresponding to the
// closed partition p (Definition 2 of the paper): the maximal closed
// partitions strictly coarser than p. Following Lee & Yannakakis, each
// candidate arises by merging one pair of blocks of p and closing; the
// cover keeps the maximal (finest) of the deduplicated merge closures.
//
// Complexity: one level-0 pair-graph pass (MergeClosures), then the
// maximality filter's O(K²) comparisons over its K closures.
func LowerCover(top *dfsm.Machine, p P) []P {
	uniq := MergeClosures(top, p, nil)

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

// MergeClosures returns the deduplicated closures of all single-pair
// block merges of the closed p that separate every forbidden pair (nil
// keeps them all), without the maximality filter of LowerCover, in
// block-pair order: each closure at its first block pair {i, j}, i-major
// with i < j. It is level 0 of a descent at p, one pair-graph pass in
// which the block pairs of one strongly connected component share one
// closure. A p that is not closed panics.
//
// Every closed partition strictly coarser than p is ≤ one of the
// unfiltered merge closures, so descending through merge closures explores
// the same down-set as descending through the lower cover — Algorithm 2
// uses this as its fast path (MinMergeClosureOn) because the maximality
// filter costs O(B⁴·N) comparisons at the top of large lattices while
// adding nothing to correctness (see core.GenerateFusion).
func MergeClosures(top *dfsm.Machine, p P, forbidden [][2]int) []P {
	var out []P
	NewDescentState().mergeClosures(top, p, forbidden, func(c P) { out = append(out, c) })
	return out
}

// ClosedPartitions returns every closed partition of top's state set, ⊤
// first, in the breadth-first order of a walk down from ⊤ through merge
// closures. Every closed partition strictly coarser than p is ≤ some
// merge closure of p, so the walk is complete. The count can be
// exponential: more than maxNodes partitions (0 means 4096) is an error.
// One descent state and one set serve every node of the walk.
func ClosedPartitions(top *dfsm.Machine, maxNodes int) ([]P, error) {
	if maxNodes <= 0 {
		maxNodes = 4096
	}
	nodes := []P{Singletons(top.NumStates())}
	seen := NewSet(64)
	seen.Add(nodes[0])
	d := NewDescentState()
	for i := 0; i < len(nodes); i++ {
		d.mergeClosures(top, nodes[i], nil, func(c P) {
			if seen.Add(c) {
				nodes = append(nodes, c)
			}
		})
		if len(nodes) > maxNodes {
			return nil, fmt.Errorf("partition: more than %d closed partitions", maxNodes)
		}
	}
	return nodes, nil
}

// mergeClosures resets d, runs level 0 at the closed p under forbidden,
// and calls visit once per distinct passing closure, in block-pair order
// (see MergeClosures). The pass numbers closures in the order it finishes
// them; d.remap, idle at level 0, marks the numbers already visited.
func (d *DescentState) mergeClosures(top *dfsm.Machine, p P, forbidden [][2]int, visit func(P)) {
	d.Reset()
	d.coldLevel(exec.Default(), top, p, forbidden)
	visited := resize(d.remap, d.next.Len())
	clear(visited)
	d.remap = visited
	b := int32(p.NumBlocks())
	for i := int32(0); i < b; i++ {
		for j := i + 1; j < b; j++ {
			if k := d.rec[node(i, j)]; k >= 0 && visited[k] == 0 {
				visited[k] = 1
				visit(d.next.items[k])
			}
		}
	}
}
