package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/exec"
	"repro/internal/partition"
)

// GenerateOptions tunes Algorithm 2. The zero value is the paper's
// algorithm with deterministic candidate selection.
type GenerateOptions struct {
	// MaxMachines aborts generation if more than this many fusion machines
	// would be required (0 = no limit). Useful as a guard in services.
	MaxMachines int
	// Pool supplies the worker pool for the candidate-closure fan-out.
	// nil means the shared package-level pool (exec.Default); services
	// that want dedicated capacity pass their engine's pool here
	// (fusion.Engine does). The choice of pool never changes the output.
	Pool *exec.Pool
}

// descents recycles partition.DescentStates across GenerateFusion and
// GreedyDescent calls, so the pair-graph pass's tables and the descent's
// records keep their capacity and a small top allocates no fresh state
// per call. Every state is Reset before it is put back, so a pooled state
// holds no partition of the call that used it.
var descents = sync.Pool{New: func() any { return partition.NewDescentState() }}

// releaseDescent resets d and returns it to the pool.
func releaseDescent(d *partition.DescentState) {
	d.Reset()
	descents.Put(d)
}

// GenerateFusion implements Algorithm 2 of the paper: it returns the
// smallest set of machines F (as closed partitions of ⊤'s state set) such
// that A ∪ F tolerates f crash faults, i.e. dmin(A ∪ F) > f. By Theorem 5
// the returned set has exactly max(0, f − dmin(A) + 1) machines and is a
// minimal (f,|F|)-fusion, so that many descents run, and a MaxMachines
// below it fails before the first. By Theorem 2 the same set tolerates
// ⌊f/2⌋ Byzantine faults.
//
// Each outer iteration starts from ⊤ (which always raises dmin by one) and
// walks down the closed-partition lattice: among the lower-cover candidates
// that still cover every weakest edge of the current fault graph — the
// paper's "dmin(F ∪ A ∪ F) > dmin(A ∪ F)" test on line 6 — it descends
// into the smallest one, stopping when no candidate qualifies. The
// weakest edges are one list of state pairs, and a candidate qualifies
// when its finished closure separates each of them.
// Candidate evaluation is parallelized inside the partition merge-closure
// fan-out, and one pooled partition.DescentState threads outcomes across
// the levels of each descent: level 0 is one pass over the pair graph of
// ⊤, pairs whose closure lost a weakest edge are pruned for the rest of
// the descent, and surviving candidates are re-evaluated at the next level
// as one union-find join per distinct closure instead of cold closures.
//
// Only the first descent runs that pass. Each generated machine separates
// every weakest edge, so it raises them all by one and lowers no edge:
// the weakest edges of one descent stay weakest in the next, joined by
// the pairs inside the machine's blocks that were one above dmin. The
// list is collected once from the block buckets of A and grown by append
// as each machine is added, so each descent's list is a prefix of the
// next one's, and a ⊤ pair that failed stays failed. The state carries
// the passing ⊤ pairs and their closures into the next descent, whose
// level 0 only rechecks each carried closure against the grown list; the
// last descent keeps no carry.
//
// Complexity: O(N³·|Σ|·f) as shown in Section 5.1.
func GenerateFusion(s *System, f int, opts GenerateOptions) ([]partition.P, error) {
	if f < 0 {
		return nil, fmt.Errorf("core: cannot tolerate %d faults", f)
	}
	d := descents.Get().(*partition.DescentState)
	defer releaseDescent(d)
	return generateWith(s, f, opts, d)
}

// generateWith is GenerateFusion descending with the state d.
func generateWith(s *System, f int, opts GenerateOptions, d *partition.DescentState) ([]partition.P, error) {
	genCounters.runs.Add(1)
	pool := opts.Pool
	if pool == nil {
		pool = exec.Default()
	}
	n := s.N()
	g := BuildFaultGraph(n, s.Parts)
	dmin := g.Dmin()
	if dmin > f {
		return nil, nil
	}
	need := f - dmin + 1 // Theorem 5: each descent raises dmin by exactly one
	if opts.MaxMachines > 0 && need > opts.MaxMachines {
		return nil, fmt.Errorf("core: fusion for f=%d needs more than %d machines (dmin currently %d)",
			f, opts.MaxMachines, dmin)
	}
	fusions := make([]partition.P, 0, need)
	forbidden := g.weakestPairs(s.Parts)
	d.Reset()
	for k := 0; k < need; k++ {
		// Recorded violations are only permanent within one descent; the
		// level-0 verdicts at ⊤ carry over, because the list only grows.
		if k > 0 {
			d.NextDescent(forbidden)
		}
		if k == need-1 {
			d.FinalDescent()
		}

		// Start at ⊤, which separates every pair and therefore always
		// covers the weakest edges. Descend through merge closures rather
		// than the maximality-filtered lower cover: every closed partition
		// strictly below m is ≤ some merge closure of m, so the down-set
		// explored is identical while skipping the O(B⁴·N) maximality
		// filter (see partition.MergeClosures). Each level's pick is the
		// Less-minimal qualifying closure: fewest blocks first, then the
		// lexicographically least normalized vector.
		m := partition.Singletons(n)
		for m.NumBlocks() > 1 {
			best, ok := partition.MinMergeClosureOn(pool, d, s.Top, m, forbidden)
			if !ok {
				break
			}
			m = best
		}

		genCounters.descents.Add(1)
		// Stats cover the descent just finished; NextDescent clears them.
		recordDescent(d.Stats())

		fusions = append(fusions, m)
		if k < need-1 {
			forbidden = g.addWeakest(m, forbidden)
		}
	}
	return fusions, nil
}

// GreedyDescent exposes one inner-loop descent of Algorithm 2: starting
// from ⊤, descend the lattice keeping the given edges covered, and return
// the final (locally minimal) machine. Used by tests and the exhaustive-
// search ablation. Like GenerateFusion's inner loop it carries a pooled
// DescentState, so deeper levels reuse outcomes from shallower ones.
func GreedyDescent(s *System, required []Edge) partition.P {
	forbidden := make([][2]int, len(required))
	for i, e := range required {
		forbidden[i] = [2]int{e.I, e.J}
	}
	d := descents.Get().(*partition.DescentState)
	defer releaseDescent(d)
	m := partition.Singletons(s.N())
	for m.NumBlocks() > 1 {
		best, ok := partition.MinMergeClosureOn(exec.Default(), d, s.Top, m, forbidden)
		if !ok {
			break
		}
		m = best
	}
	return m
}

// ExhaustiveMinimalFusions enumerates ALL closed partitions of ⊤
// (partition.ClosedPartitions) and returns the machines with the fewest
// states among those that, added alone, raise dmin(A) by one. This is the
// exponential-time (1,1)-fusion search of the authors' earlier ICDCN'08
// paper, kept as the ablation baseline for Algorithm 2; it is only
// feasible for small tops.
//
// maxNodes caps the number of closed partitions enumerated (0 means
// 4096); exceeding it returns an error.
func ExhaustiveMinimalFusions(s *System, maxNodes int) ([]partition.P, error) {
	all, err := partition.ClosedPartitions(s.Top, maxNodes)
	if err != nil {
		return nil, err
	}
	g := BuildFaultGraph(s.N(), s.Parts)
	required := g.WeakestEdges()

	bestBlocks := -1
	var best []partition.P
	for _, p := range all {
		if !Covers(p, required) {
			continue
		}
		switch {
		case bestBlocks == -1 || p.NumBlocks() < bestBlocks:
			bestBlocks = p.NumBlocks()
			best = []partition.P{p}
		case p.NumBlocks() == bestBlocks:
			best = append(best, p)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no closed partition covers the weakest edges (impossible: ⊤ does)")
	}
	sort.Slice(best, func(i, j int) bool { return best[i].Less(best[j]) })
	return best, nil
}
