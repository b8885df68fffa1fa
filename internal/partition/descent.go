package partition

import (
	"repro/internal/dfsm"
	"repro/internal/exec"
)

// DescentState threads candidate outcomes across the levels of one greedy
// descent of Algorithm 2, so deeper levels stop treating every merge
// closure as a cold start. Two mechanisms, both sound by closure
// monotonicity (the closure of a coarser start is coarser, so within one
// descent a constraint violation is permanent):
//
//   - Cross-level violation pruning: a state pair (x, y) whose merge
//     closure collapsed a forbidden pair (or failed the monotone keep
//     predicate) at level L is recorded and skipped at every deeper
//     level without recomputation. Block representatives are minimal
//     states, so every pair enumerated at level L+1 carries a state-pair
//     key that was already evaluated at level L — after the first level
//     the fan-out shrinks from O(B²) closures to the surviving pairs.
//
//   - Closure seeding: a pair that survived level L with candidate c is
//     re-evaluated at level L+1 as the join of c with the new level
//     start m′ instead of a from-scratch closure of the two-block merge.
//     Closed partitions are closed under join (Hartmanis–Stearns), so
//     close(m′ ∪ {x~y}) = join(c, m′): the transition table is only
//     consulted by a residual fixpoint check that never fires on closed
//     inputs, turning each re-evaluation into O(N·α) union-find work.
//
// A third mechanism shares *within* a level: a level whose tasks are all
// cold (in a descent, level 0, since every deeper pair is either pruned
// or seeded) is evaluated in one serial pass over the pair graph of the
// quotient machine ⊤/p (sccTable). Pairs in one strongly connected
// component share one closure, and a pair whose successor failed fails
// in O(|Σ|), so only a few cascades run per level, each absorbing the
// finished closures of its successors. The pass is deterministic, so the
// implied/seeded/cold split of ColdClosures is as pinnable as the other
// counters. Levels that mix seeded and cold tasks, and states built with
// DisablePairMemo, run the pooled fan-out (closePairs) instead.
//
// Nothing carries across descents: every descent's level 0 is a
// constrained pass like any other all-cold level, so its guarded
// cascades abort early.
//
// A DescentState serves exactly one descent: call Reset before starting
// the next one (the weakest-edge constraint changes between outer
// iterations of Algorithm 2, so recorded violations expire with the
// descent). It is not safe for concurrent descents; within one level the
// pool tasks only read it.
type DescentState struct {
	// pruned holds one bit per unordered state pair of ⊤
	// (triangular-indexed by pairIndex): set once the pair violated.
	pruned    pairBits
	survivors map[int]P
	next      map[int]P
	interned  *Set // canonical survivor storage: equal candidates share one P

	// table is the per-level pair-graph pass, its buffers kept across
	// levels and descents. passOff (see DisablePairMemo) keeps every
	// level on the cold fan-out for ablations and equivalence baselines.
	table   sccTable
	passOff bool

	stats DescentStats

	// onClose observes every closure evaluated (cold or seeded) with the
	// pair's representative states; tests hook it to prove that pruned
	// pairs are never re-closed. Called from pool workers (the pair-graph
	// pass calls it on the caller) — a non-nil hook must be internally
	// synchronized.
	onClose func(x, y int)
}

// DescentStats counts what the cross-level reuse saved within the
// current descent (cumulative since the last Reset).
type DescentStats struct {
	// Levels is the number of descent levels evaluated.
	Levels int
	// ColdClosures counts from-scratch merge closures (all of level 0,
	// plus any pair with no recorded outcome).
	ColdClosures int
	// SeededJoins counts re-evaluations served as join(survivor, m′).
	SeededJoins int
	// PrunedSkips counts pair evaluations skipped outright because the
	// pair violated at an earlier level.
	PrunedSkips int

	// The pair-graph pass splits ColdClosures by how each from-scratch
	// evaluation resolved; the three always sum to ColdClosures.
	// ImpliedCascades ran no cascade of their own (they share their SCC
	// root's verdict, failed on a forbidden member or a failed successor,
	// or met a successor closure equal to their own); SeededCascades
	// absorbed at least one finished successor closure wholesale;
	// ColdCascades ran with no assist. Like every other counter here the
	// split is deterministic.
	ImpliedCascades int
	SeededCascades  int
	ColdCascades    int
}

// NewDescentState returns an empty state, ready for one descent.
func NewDescentState() *DescentState {
	return &DescentState{
		survivors: make(map[int]P),
		next:      make(map[int]P),
		interned:  NewSet(64),
	}
}

// Reset clears all recorded outcomes for a fresh descent, retaining the
// allocated maps, the pruned bitset and the pass's buffers. The pass's
// closure references are dropped: nothing of one descent's partitions
// may survive into another.
func (d *DescentState) Reset() {
	clear(d.pruned)
	clear(d.survivors)
	clear(d.next)
	d.interned = NewSet(64)
	d.table.release()
	d.stats = DescentStats{}
}

// DisablePairMemo turns off the per-level pair-graph pass for the life of
// this state: every cold evaluation runs its own full cascade on the
// pool. Output is identical either way; ablation benchmarks and
// equivalence baselines use it to keep the unshared path measurable.
func (d *DescentState) DisablePairMemo() { d.passOff = true }

// Stats returns the reuse counters accumulated since the last Reset.
func (d *DescentState) Stats() DescentStats { return d.stats }

// pairIndex triangular-indexes the unordered pair of distinct states
// {x, y}; the index does not depend on the number of states.
func pairIndex(x, y int) int {
	if x > y {
		x, y = y, x
	}
	return y*(y-1)/2 + x
}

// pairBits is a dense bitset over pairIndex values that grows on demand.
type pairBits []uint64

func (b pairBits) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b *pairBits) add(i int) {
	w := i >> 6
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (i & 63)
}

// pairTask is one candidate evaluation of a fan-out: the representative
// (minimal) states of two blocks of the level start plus, when the pair
// survived the previous level, its closure there to seed the join from
// (zero P for a cold evaluation).
type pairTask struct {
	x, y int
	seed P
}

// pairResult is one task's slot in a fan-out: the candidate closure, its
// verdict against the level constraint, and how a cold evaluation
// resolved.
type pairResult struct {
	cand P
	ok   bool
	out  cascadeOutcome
}

// constraint is what a level's candidates must satisfy: separate every
// forbidden pair (enforced inside the cascade, which aborts early) and
// pass keep (checked on the finished closure). Either part may be empty.
// Both must be monotone under coarsening — if a partition fails, every
// coarser one fails — for the descent's pruning and the pair-graph pass's
// failed successors to be sound; the fault-graph Covers predicate is
// (losing an edge is permanent).
type constraint struct {
	forbidden [][2]int
	keep      func(P) bool
}

// blockPairs returns one cold task per unordered block pair of p, in
// block order.
func blockPairs(p P) []pairTask {
	blocks := p.Blocks()
	b := len(blocks)
	tasks := make([]pairTask, 0, b*(b-1)/2)
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			tasks = append(tasks, pairTask{x: blocks[i][0], y: blocks[j][0]})
		}
	}
	return tasks
}

// closePairs is the one pool fan-out over a level's block pairs, shared by
// the min-descent, the full candidate list and the single-shot closures:
// each task closes p merged along its pair (joined with its seed, if any)
// under con. The level start's forest and the forbidden-pair guard are
// built once, before the pool runs, and every cascade starts from a copy;
// when close(p) already merges a forbidden pair, every task fails without
// running. onClose, when set, observes every evaluated pair and must be
// internally synchronized. The pool's atomic cursor load-balances the
// tasks and per-worker scratch slots recycle the union-find working sets;
// results land in task-indexed slots, so every reduction over them is
// independent of worker scheduling.
func closePairs(pool *exec.Pool, top *dfsm.Machine, p P, tasks []pairTask, con constraint, onClose func(x, y int)) []pairResult {
	res := make([]pairResult, len(tasks))
	st := newLevelStart(top, p, con.forbidden)
	if st.violated {
		return res
	}
	pool.Run(len(tasks), func(c *exec.Ctx, k int) {
		t := tasks[k]
		if onClose != nil {
			onClose(t.x, t.y)
		}
		cand, out, ok := cascade(c, top, st, t.seed, t.x, t.y, nil)
		ok = ok && (con.keep == nil || con.keep(cand))
		res[k] = pairResult{cand: cand, ok: ok, out: out}
	})
	return res
}

// minAccepted is Algorithm 2's deterministic pick over a fan-out: the
// Less-minimal accepted candidate, first in task order on ties.
func minAccepted(res []pairResult) (P, bool) {
	var best P
	found := false
	for _, r := range res {
		if r.ok && (!found || r.cand.Less(best)) {
			best, found = r.cand, true
		}
	}
	return best, found
}

// MinMergeClosureOn returns the Less-minimal merge closure of p that
// separates every forbidden pair and passes keep — the pickCandidate
// winner of Algorithm 2's line-6 fan-out — without materializing the full
// candidate list, and records per-pair outcomes in d for cross-level
// reuse. ok is false when no candidate passes (the descent has bottomed
// out). d may be nil (no reuse: every level is evaluated cold).
//
// forbidden is enforced by the abort-early guarded cascade and keep on
// each finished closure; either may be nil. Pruning soundness requires
// keep to be monotone under coarsening: if keep rejects a partition it
// must reject every coarser one. The winner is identical to the
// Less-minimum of MergeClosuresOn(pool, top, p, forbidden, keep) for any
// such keep.
func MinMergeClosureOn(pool *exec.Pool, d *DescentState, top *dfsm.Machine, p P, forbidden [][2]int, keep func(P) bool) (P, bool) {
	if p.NumBlocks() <= 1 {
		return P{}, false // bottom has no merge closures
	}
	con := constraint{forbidden, keep}
	if d == nil {
		return minAccepted(closePairs(pool, top, p, blockPairs(p), con, nil))
	}
	tasks, res := d.liveLevel(pool, top, p, con)

	// Record outcomes serially, in task order, so d's contents are
	// independent of worker scheduling. The survivors just recorded
	// become the seeds of the next level.
	for k, t := range tasks {
		i := pairIndex(t.x, t.y)
		if res[k].ok {
			d.next[i] = res[k].cand
		} else {
			d.pruned.add(i)
		}
	}
	d.stats.Levels++
	d.survivors, d.next = d.next, d.survivors
	clear(d.next)
	return minAccepted(res)
}

// liveLevel evaluates one level: skip the pairs d has pruned, seed the
// survivors from their previous-level closures, and close the rest cold —
// in one pair-graph pass when every task is cold and the pass is on.
func (d *DescentState) liveLevel(pool *exec.Pool, top *dfsm.Machine, p P, con constraint) ([]pairTask, []pairResult) {
	all := blockPairs(p)
	tasks := all[:0]
	cold := 0
	for _, t := range all {
		i := pairIndex(t.x, t.y)
		if d.pruned.has(i) {
			d.stats.PrunedSkips++
			continue
		}
		if prev, ok := d.survivors[i]; ok {
			t.seed = prev
		} else {
			cold++
		}
		tasks = append(tasks, t)
	}
	var res []pairResult
	if !d.passOff && cold > 0 && cold == len(tasks) {
		res = d.table.closeLevel(pool, top, p, tasks, con, d.onClose)
	} else {
		res = closePairs(pool, top, p, tasks, con, d.onClose)
	}
	for k, t := range tasks {
		if t.seed.N() == 0 {
			d.stats.recordCascade(res[k].out)
		}
		if res[k].ok {
			res[k].cand = d.interned.Intern(res[k].cand) // equal survivors share one allocation
		}
	}
	d.stats.ColdClosures += cold
	d.stats.SeededJoins += len(tasks) - cold
	return tasks, res
}

// recordCascade tallies one from-scratch evaluation's resolution into
// the implied/seeded/cold split of the level-sharing counters.
func (s *DescentStats) recordCascade(out cascadeOutcome) {
	switch out {
	case cascadeImplied:
		s.ImpliedCascades++
	case cascadeSeeded:
		s.SeededCascades++
	default:
		s.ColdCascades++
	}
}
