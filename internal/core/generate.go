package core

import (
	"fmt"
	"sort"

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
	// NoIncremental disables the incremental descent engine — the
	// cross-level violation pruning and survivor-seeded joins of
	// partition.DescentState — so every descent level re-evaluates all
	// O(B²) block pairs from scratch; used by the ablation benchmark.
	// Incremental and cold descents return bit-identical fusions (the
	// equivalence suite pins this).
	NoIncremental bool
	// NoPairMemo disables the within-level sharing — level 0's single
	// pass over the quotient pair graph, where pairs of one strongly
	// connected component share one cascade — while keeping the
	// cross-level incremental machinery, so every cold pair runs its own
	// cascade on the pool; used by the ablation benchmark. Shared and
	// unshared levels return bit-identical fusions (the equivalence suite
	// pins this). Implied by NoIncremental, which drops the DescentState
	// the pass lives in.
	NoPairMemo bool
	// NoCache opts this call out of the content-addressed fusion cache.
	// GenerateFusion itself ignores it — core always computes — but the
	// cache-aware layers above (fusion.Engine, fusiond's generate route)
	// honor it, and it deliberately does NOT participate in RequestDigest:
	// a NoCache run produces the same bits as a cached one.
	NoCache bool
}

// guardedClosureLimit bounds the weakest-edge count up to which the
// guarded closure is used; past it each finished closure is filtered by
// Covers instead. The guard is armed once per fan-out, then costs each
// cascade O(endpoints) to tag and clear and each union O(tags·deg) to
// check the absorbed set's endpoints against their partners. Since level
// 0 runs as one pass over the pair graph, few cascades pay that cost: at
// 720 edges (BenchmarkAblationGuardedClosure, 144-state top, 2-vCPU Xeon
// VM, min/median/max of 3 runs) one guarded descent takes 2.64/2.71/3.02
// ms against 2.47/2.83/3.53 ms filtered, so the filtered path no longer
// wins on large edge sets. The limit has not been retuned to match.
const guardedClosureLimit = 64

// incrementalMinStates is the top size below which the descent runs cold:
// the cross-level bookkeeping of a DescentState (outcome maps, survivor
// interning) costs more than the handful of closures it saves when a
// level has only a few dozen pairs. Output is identical either way.
const incrementalMinStates = 16

// GenerateFusion implements Algorithm 2 of the paper: it returns the
// smallest set of machines F (as closed partitions of ⊤'s state set) such
// that A ∪ F tolerates f crash faults, i.e. dmin(A ∪ F) > f. By Theorem 5
// the returned set has exactly max(0, f − dmin(A) + 1) machines and is a
// minimal (f,|F|)-fusion. By Theorem 2 the same set tolerates ⌊f/2⌋
// Byzantine faults.
//
// Each outer iteration starts from ⊤ (which always raises dmin by one) and
// walks down the closed-partition lattice: among the lower-cover candidates
// that still cover every weakest edge of the current fault graph — the
// paper's "dmin(F ∪ A ∪ F) > dmin(A ∪ F)" test on line 6 — it descends
// into the smallest one, stopping when no candidate qualifies. Candidate
// evaluation is parallelized inside the partition merge-closure fan-out,
// and one partition.DescentState threads pair outcomes across the levels
// of each descent: pairs whose closure lost a weakest edge are pruned for
// the rest of the descent, and surviving candidates are re-evaluated at
// the next level as cheap union-find joins instead of cold closures
// (opts.NoIncremental falls back to cold levels for the ablation).
//
// Complexity: O(N³·|Σ|·f) as shown in Section 5.1.
func GenerateFusion(s *System, f int, opts GenerateOptions) ([]partition.P, error) {
	if f < 0 {
		return nil, fmt.Errorf("core: cannot tolerate %d faults", f)
	}
	genCounters.runs.Add(1)
	n := s.N()
	g := BuildFaultGraph(n, s.Parts)
	var fusions []partition.P
	var d *partition.DescentState
	if !opts.NoIncremental && n >= incrementalMinStates {
		d = partition.NewDescentState()
		if opts.NoPairMemo {
			d.DisablePairMemo()
		}
	}

	for g.Dmin() <= f {
		if opts.MaxMachines > 0 && len(fusions) >= opts.MaxMachines {
			return nil, fmt.Errorf("core: fusion for f=%d needs more than %d machines (dmin currently %d)",
				f, opts.MaxMachines, g.Dmin())
		}
		required := g.WeakestEdges()
		if d != nil {
			// Recorded violations are only permanent within one descent:
			// the weakest-edge set changes with every generated machine.
			d.Reset()
		}

		// Start at ⊤, which separates every pair and therefore always
		// covers the required edges. Descend through merge closures rather
		// than the maximality-filtered lower cover: every closed partition
		// strictly below m is ≤ some merge closure of m, so the down-set
		// explored is identical while skipping the O(B⁴·N) maximality
		// filter (see partition.MergeClosuresOn).
		m := partition.Singletons(n)
		for m.NumBlocks() > 1 {
			best, ok := bestCandidate(s, m, required, opts, d)
			if !ok {
				break
			}
			m = best
		}

		genCounters.descents.Add(1)
		if d != nil {
			// Stats cover the descent just finished; Reset clears them at
			// the top of the next iteration.
			recordDescent(d.Stats())
		}

		fusions = append(fusions, m)
		g.Add(m)
	}
	return fusions, nil
}

// bestCandidate evaluates one descent level: among the merge closures of
// m that still separate every required edge, return the Less-minimal one
// (Algorithm 2's deterministic pick — fewest blocks first, then
// lexicographically least normalized vector). Up to guardedClosureLimit
// required edges it hands them to the guarded (abort-early) cascade as
// forbidden pairs, past it it filters each finished closure by Covers;
// both return the same candidate. The fan-out runs on the options' pool
// (the shared default when unset) and threads the descent state for
// cross-level pruning and seeding (d may be nil for cold levels). ok is
// false when no candidate qualifies.
func bestCandidate(s *System, m partition.P, required []Edge, opts GenerateOptions, d *partition.DescentState) (partition.P, bool) {
	pool := opts.Pool
	if pool == nil {
		pool = exec.Default()
	}
	if len(required) <= guardedClosureLimit {
		forbidden := make([][2]int, len(required))
		for i, e := range required {
			forbidden[i] = [2]int{e.I, e.J}
		}
		return partition.MinMergeClosureOn(pool, d, s.Top, m, forbidden, nil)
	}
	covers := func(p partition.P) bool { return Covers(p, required) }
	return partition.MinMergeClosureOn(pool, d, s.Top, m, nil, covers)
}

// GreedyDescent exposes one inner-loop descent of Algorithm 2: starting
// from ⊤, descend the lattice keeping the given edges covered, and return
// the final (locally minimal) machine. Used by tests and the exhaustive-
// search ablation. Like GenerateFusion's inner loop it carries a
// DescentState, so deeper levels reuse pair outcomes from shallower ones.
func GreedyDescent(s *System, required []Edge) partition.P {
	covers := func(p partition.P) bool { return Covers(p, required) }
	var d *partition.DescentState
	if s.N() >= incrementalMinStates {
		d = partition.NewDescentState()
	}
	m := partition.Singletons(s.N())
	for m.NumBlocks() > 1 {
		best, ok := partition.MinMergeClosureOn(exec.Default(), d, s.Top, m, nil, covers)
		if !ok {
			break
		}
		m = best
	}
	return m
}

// ExhaustiveMinimalFusions enumerates ALL closed partitions of ⊤ (via
// lattice descent with memoization) and returns the machines with the
// fewest states among those that, added alone, raise dmin(A) by one. This
// is the exponential-time (1,1)-fusion search of the authors' earlier
// ICDCN'08 paper, kept as the ablation baseline for Algorithm 2; it is only
// feasible for small tops.
//
// maxNodes caps the number of lattice nodes visited; exceeding it returns
// an error.
func ExhaustiveMinimalFusions(s *System, maxNodes int) ([]partition.P, error) {
	all, err := EnumerateClosedPartitions(s, maxNodes)
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

// EnumerateClosedPartitions returns every closed partition of ⊤'s state
// set, found by BFS downward from ⊤ through lower covers of *merges* (every
// closed partition below p is below the closure of some two-state merge of
// p, so the traversal is complete). The count can be exponential; maxNodes
// bounds the walk.
func EnumerateClosedPartitions(s *System, maxNodes int) ([]partition.P, error) {
	top := partition.Singletons(s.N())
	seen := partition.NewSet(64)
	seen.Add(top)
	queue := []partition.P{top}
	var all []partition.P
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		all = append(all, p)
		if maxNodes > 0 && len(all) > maxNodes {
			return nil, fmt.Errorf("core: closed-partition lattice exceeds %d nodes", maxNodes)
		}
		blocks := p.Blocks()
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				c := partition.CloseMergingStates(s.Top, p, blocks[i][0], blocks[j][0])
				if seen.Add(c) {
					queue = append(queue, c)
				}
			}
		}
	}
	return all, nil
}
