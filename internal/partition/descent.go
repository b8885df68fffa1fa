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
// A third mechanism shares *within* a level: the cold evaluations of one
// level publish their cascade outcomes into a pair-implication memo
// (pairMemo), so a pair whose closure is implied by — or identical to —
// an already-finished pair's resolves without re-walking the shared
// union cascade over the transition table. Where pruning and seeding
// only pay off from level 1 down, the memo attacks the all-cold level 0
// itself, which is what remains of the big single-descent rows.
//
// Nothing carries across descents: every descent's level 0 is a
// constrained, memoized fan-out like any other level, so its guarded
// cascades abort early and publish violations into the memo.
//
// A DescentState serves exactly one descent: call Reset before starting
// the next one (the weakest-edge constraint changes between outer
// iterations of Algorithm 2, so recorded violations expire with the
// descent).
// It is not safe for concurrent descents; within one level the pool
// tasks only read it — except the pair memo, whose entries are built for
// exactly that concurrent publish/lookup pattern.
type DescentState struct {
	pruned    map[uint64]struct{}
	survivors map[uint64]P
	next      map[uint64]P
	interned  *Set // canonical survivor storage: equal candidates share one P

	// memo is the within-level pair-implication memo, reset for each
	// level's start partition and dropped by Reset. memoOff (see
	// DisablePairMemo) keeps the cascades cold for ablations and
	// equivalence baselines.
	memo    *pairMemo
	memoOff bool

	stats DescentStats

	// onClose observes every closure actually evaluated (cold or seeded)
	// with the pair's representative states; tests hook it to prove that
	// pruned pairs are never re-closed. Called from pool workers — a
	// non-nil hook must be internally synchronized.
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

	// The within-level pair-implication memo splits ColdClosures by how
	// each from-scratch evaluation actually resolved; the three always
	// sum to ColdClosures. ImpliedCascades were answered outright by an
	// implication (a derived pair's published violation, or a
	// mutually-implying pair's published closure); SeededCascades
	// absorbed at least one finished closure wholesale instead of
	// re-walking its cascade; ColdCascades ran with no memo assist. The
	// split — unlike every other counter here — depends on pool
	// scheduling (whether a neighbour's entry was published in time),
	// so only its sum is deterministic.
	ImpliedCascades int
	SeededCascades  int
	ColdCascades    int
}

// NewDescentState returns an empty state, ready for one descent.
func NewDescentState() *DescentState {
	return &DescentState{
		pruned:    make(map[uint64]struct{}),
		survivors: make(map[uint64]P),
		next:      make(map[uint64]P),
		interned:  NewSet(64),
	}
}

// Reset clears all recorded outcomes for a fresh descent, retaining the
// allocated maps. The pair-implication memo is dropped outright: its
// entries are keyed by the block ids of one level's start partition and
// assume that level's constraint, so nothing in it may survive into
// another descent.
func (d *DescentState) Reset() {
	clear(d.pruned)
	clear(d.survivors)
	clear(d.next)
	d.interned = NewSet(64)
	if d.memo != nil {
		d.memo.drop()
	}
	d.stats = DescentStats{}
}

// DisablePairMemo turns off the within-level pair-implication memo for
// the life of this state: every cold evaluation runs its full cascade.
// Output is identical either way; ablation benchmarks and equivalence
// baselines use it to keep the unmemoized path measurable.
func (d *DescentState) DisablePairMemo() { d.memoOff = true }

// Stats returns the reuse counters accumulated since the last Reset.
func (d *DescentState) Stats() DescentStats { return d.stats }

// pairKey packs two distinct states (representatives are < 1<<22, the
// dfsm product bound) into one map key, order-normalized.
func pairKey(x, y int) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(y)
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
// verdict against the level constraint, and how a cold cascade resolved
// against the pair memo.
type pairResult struct {
	cand P
	ok   bool
	out  cascadeOutcome
}

// constraint is what a level's candidates must satisfy: separate every
// forbidden pair (enforced inside the cascade, which aborts early) and
// pass keep (checked on the finished closure). Either part may be empty.
// Both must be monotone under coarsening — if a partition fails, every
// coarser one fails — for the descent's pruning and the memo's implied
// violations to be sound; the fault-graph Covers predicate is (losing an
// edge is permanent).
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
// running. Cold tasks thread memo (nil when sharing is off) and publish
// their outcome into it; onClose, when set, observes every evaluated pair
// and must be internally synchronized. The pool's atomic cursor
// load-balances the tasks and per-worker scratch slots recycle the
// union-find working sets; results land in task-indexed slots, so every
// reduction over them is independent of worker scheduling.
func closePairs(pool *exec.Pool, top *dfsm.Machine, p P, tasks []pairTask, con constraint, memo *pairMemo, onClose func(x, y int)) []pairResult {
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
		m := memo
		if t.seed.N() > 0 {
			m = nil // a seeded join neither needs nor defines a memo entry
		}
		cand, out, ok := cascade(c, top, st, t.seed, t.x, t.y, m)
		// A cascade aborted by an implied violation carries over to this
		// pair by the constraint's monotonicity, so keep only judges
		// finished closures.
		ok = ok && (con.keep == nil || con.keep(cand))
		if m != nil {
			m.publish(t.x, t.y, cand, ok)
		}
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
		return minAccepted(closePairs(pool, top, p, blockPairs(p), con, nil, nil))
	}
	tasks, res := d.liveLevel(pool, top, p, con)

	// Record outcomes serially, in task order, so d's contents are
	// independent of worker scheduling. The survivors just recorded
	// become the seeds of the next level.
	for k, t := range tasks {
		key := pairKey(t.x, t.y)
		if res[k].ok {
			d.next[key] = res[k].cand
		} else {
			d.pruned[key] = struct{}{}
		}
	}
	d.stats.Levels++
	d.survivors, d.next = d.next, d.survivors
	clear(d.next)
	return minAccepted(res)
}

// levelMemo returns the pair memo reset for a level starting at p, or
// nil when sharing is off or the level cannot profit (fewer than two
// cold evaluations means no cascade can reuse another's). coldTasks
// counts the level's from-scratch evaluations.
func (d *DescentState) levelMemo(p P, coldTasks int) *pairMemo {
	if d.memoOff || coldTasks < 2 {
		return nil
	}
	if d.memo == nil {
		d.memo = &pairMemo{}
	}
	d.memo.reset(p)
	return d.memo
}

// liveLevel evaluates one level: skip the pairs d has pruned, seed the
// survivors from their previous-level closures, and close the rest cold
// through the level's pair memo.
func (d *DescentState) liveLevel(pool *exec.Pool, top *dfsm.Machine, p P, con constraint) ([]pairTask, []pairResult) {
	all := blockPairs(p)
	tasks := all[:0]
	cold := 0
	for _, t := range all {
		key := pairKey(t.x, t.y)
		if _, dead := d.pruned[key]; dead {
			d.stats.PrunedSkips++
			continue
		}
		if prev, ok := d.survivors[key]; ok {
			t.seed = prev
		} else {
			cold++
		}
		tasks = append(tasks, t)
	}
	res := closePairs(pool, top, p, tasks, con, d.levelMemo(p, cold), d.onClose)
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
