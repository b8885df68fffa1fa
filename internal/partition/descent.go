package partition

import (
	"slices"

	"repro/internal/dfsm"
	"repro/internal/exec"
)

// DescentState threads candidate outcomes across the levels of one greedy
// descent of Algorithm 2, so deeper levels stop treating every merge
// closure as a cold start. It keeps them per closure, not per pair: each
// level's distinct passing closures are numbered in a Set, and a record
// holds one int32 per block pair of the level start, the number of the
// pair's closure or -1 once the pair failed. Three mechanisms, all sound
// by closure monotonicity (the closure of a coarser start is coarser, so
// within one descent a constraint violation is permanent):
//
//   - Level 0 (the first level after Reset or NextDescent) is all cold
//     and, unless the ⊤ carry below decides it, runs as one serial pass
//     over the pair graph of the quotient machine ⊤/p (sccTable). Pairs
//     in one strongly connected component share one closure, and the
//     search stops at the first failing pair and fails its whole stack
//     with it, so only a few cascades run, each absorbing the finished
//     closures of its successors. The pass's comp array becomes the
//     record, so level 0 materializes no per-pair task, result or
//     partition.
//
//   - Cross-level violation pruning: a pair whose merge closure collapsed
//     a forbidden pair at level L keeps -1 and is skipped at every deeper
//     level without recomputation. Block representatives are minimal
//     states, so every pair enumerated at level L+1 is a pair that was
//     evaluated at level L.
//
//   - Closure seeding: a pair that survived level L with closure c is
//     re-evaluated at level L+1 as the join of c with the new level start
//     m′ instead of a from-scratch closure of the two-block merge. Closed
//     partitions are closed under join (Hartmanis–Stearns), so
//     close(m′ ∪ {x~y}) = join(c, m′). c already merges x~y, so the join
//     does not depend on the pair: each level runs one join per distinct
//     seed on the pool (closePairs) and records the result's number for
//     every pair that shares the seed.
//
// The record is rewritten in place from level to level, because a deeper
// level's block pairs map monotonically onto nodes of the previous one
// that are no smaller. Every counter, including the implied/seeded/cold
// split of ColdClosures, is deterministic.
//
// Across the descents of one generation the state carries level-0
// verdicts at ⊤. Each descent of Algorithm 2 adds a machine that
// separates every weakest edge, which raises those edges by one and
// lowers none, so the next descent's forbidden list extends this one's:
// F₁ ⊆ F₂ ⊆ …, each a prefix of the next, as core grows the list by
// append. A ⊤ pair's closure does not depend on F, so a pair that
// failed under Fₖ fails under every later list. After a pass at ⊤ the
// state keeps only what passed: each distinct passing closure, the ⊤
// pairs that carry it, and the top and forbidden list they were judged
// under. NextDescent starts the next descent with that carry, and its
// level 0 at ⊤ of the same top runs no pass and no cascade: every pair
// is failed, each carried closure is rechecked once against the new list,
// and the survivors' pairs get their number back. The carry holds one
// entry per passing closure and one per passing pair, so on a pair-rich
// top, where most ⊤ pairs pass level 0, it nears one entry per ⊤ pair; a
// level 0 anywhere else drops it and runs the pass. A descent marked by
// FinalDescent, the last of its generation, keeps no carry.
//
// A DescentState serves one descent at a time: call Reset before starting
// an unrelated descent, or NextDescent before the next descent of the
// same generation (recorded violations expire with the descent; only the
// ⊤ carry outlives it). Reset keeps every buffer, so a recycled state
// (core pools them) allocates nothing for its records after the first
// calls, and it drops every partition reference, the carry included, so
// no partition of one call outlives it. It is not safe for concurrent
// descents; within one level the pool tasks only read it.
type DescentState struct {
	// start is the last level start evaluated (zero after Reset); rec is
	// indexed by its block pairs and numbers their closures in closures.
	// next collects the level being evaluated, then trades places with
	// closures.
	start          P
	rec            []int32
	closures, next Set
	remap          []int32

	// table is the level-0 pair-graph pass; after a pass, rec is its comp
	// array.
	table sccTable

	// carry is level 0's outcome at ⊤, kept across the descents of one
	// generation (see NextDescent). final marks the generation's last
	// descent, whose level 0 at ⊤ keeps none.
	carry topCarry
	final bool

	stats DescentStats

	// onClose observes every pair evaluated (cold or seeded) with its
	// representative states, on the caller; tests hook it to prove that
	// pruned pairs are never re-closed.
	onClose func(x, y int)
}

// DescentStats counts what the cross-level reuse saved within the
// current descent (cumulative since the last Reset).
type DescentStats struct {
	// Levels is the number of descent levels evaluated.
	Levels int
	// ColdClosures counts the pairs of level 0, each a from-scratch merge
	// closure unless the level was decided by the ⊤ carry.
	ColdClosures int
	// SeededJoins counts pair re-evaluations served as join(survivor, m′)
	// (one per pair, although pairs that share a seed share one join).
	SeededJoins int
	// PrunedSkips counts pair evaluations skipped outright because the
	// pair violated at an earlier level.
	PrunedSkips int

	// The pair-graph pass splits ColdClosures by how each from-scratch
	// evaluation resolved; the three always sum to ColdClosures.
	// ImpliedCascades ran no cascade of their own (they share their SCC
	// root's verdict, were failed by an aborted search, met a successor
	// closure equal to their own, sit at a level start that already
	// merges a forbidden pair, or are ⊤ pairs of a later descent, whose
	// verdict the carry decided); SeededCascades absorbed at least one
	// finished successor closure wholesale; ColdCascades ran with no
	// assist. Like every other counter here the
	// split is deterministic.
	ImpliedCascades int
	SeededCascades  int
	ColdCascades    int
}

// NewDescentState returns an empty state, ready for one descent.
func NewDescentState() *DescentState { return &DescentState{} }

// Reset clears all recorded outcomes for a fresh descent, retaining every
// buffer, and drops every partition reference the state holds, the ⊤
// carry included.
func (d *DescentState) Reset() {
	d.clearDescent()
	d.carry.release()
}

// NextDescent clears the recorded outcomes like Reset but keeps the ⊤
// carry, for the next descent of the same generation under forbidden.
// Algorithm 2's weakest edges only grow from one descent to the next, and
// core grows its list by append, so the list the carry was judged under
// must be a prefix of forbidden; a list that does not extend it panics.
// forbidden must be the list the descent then passes to
// MinMergeClosureOn, and the carry keeps it by reference until the next
// level 0 or Reset, so its first entries must not change meanwhile.
func (d *DescentState) NextDescent(forbidden [][2]int) {
	d.clearDescent()
	if old := d.carry.forbidden; d.carry.top != nil &&
		(len(old) > len(forbidden) || !slices.Equal(forbidden[:len(old)], old)) {
		panic("partition: NextDescent forbidden list does not extend the previous descent's")
	}
}

// FinalDescent marks the current descent as the last of its generation:
// no NextDescent follows, so its level 0 at ⊤ keeps no carry. Reset and
// NextDescent clear the mark.
func (d *DescentState) FinalDescent() { d.final = true }

// clearDescent drops the current descent's record, closures, stats and
// final mark.
func (d *DescentState) clearDescent() {
	d.final = false
	d.start = P{}
	d.rec = d.rec[:0]
	d.closures.reset()
	d.next.reset()
	d.table.release()
	d.stats = DescentStats{}
}

// topCarry is the passing part of a level-0 pass at ⊤: the distinct
// passing closures, and per passing ⊤ pair its node and the number of
// its closure. top and forbidden are what the verdicts were judged
// under, and the next descent's forbidden list must extend forbidden (a
// prefix check, see NextDescent); top is nil when there is nothing to
// carry.
type topCarry struct {
	top       *dfsm.Machine
	forbidden [][2]int
	closures  []P
	nodes, of []int32
}

// release drops the carry, keeping its closure and pair buffers.
func (c *topCarry) release() {
	c.top, c.forbidden = nil, nil
	clear(c.closures)
	c.closures = c.closures[:0]
	c.nodes, c.of = c.nodes[:0], c.of[:0]
}

// Stats returns the reuse counters accumulated since the last Reset.
func (d *DescentState) Stats() DescentStats { return d.stats }

// pairTask is one candidate evaluation of a fan-out: the representative
// (minimal) states of two blocks of the level start plus, at a seeded
// level, the pair's closure at the previous level to join with the start
// (zero P for a cold evaluation).
type pairTask struct {
	x, y int
	seed P
}

// pairResult is one task's slot in a fan-out: the candidate closure and
// its verdict against the level constraint.
type pairResult struct {
	cand P
	ok   bool
}

// separatesAll reports whether c keeps the two states of every forbidden
// pair in distinct blocks — the one level constraint of a descent.
// Coarsening never splits a block, so a partition that fails fails for
// every coarser one: the descent's pruning and the pair-graph pass's
// fail-fast search rest on that.
func separatesAll(c P, forbidden [][2]int) bool {
	blockOf := c.View()
	for _, e := range forbidden {
		if blockOf[e[0]] == blockOf[e[1]] {
			return false
		}
	}
	return true
}

// closePairs is the one pool fan-out of closures, run by the seeded
// descent levels (one task per distinct seed): each task closes p merged
// along its pair (joined with its seed, if any), and the finished closure
// passes when it separates every forbidden pair. The level start's forest
// is built once, before the pool runs, and every cascade starts from a
// copy; when close(p) already merges a forbidden pair, every task fails
// without running. The pool's atomic cursor load-balances the tasks and
// per-worker scratch slots recycle the union-find working sets; results
// land in task-indexed slots, so every reduction over them is independent
// of worker scheduling.
func closePairs(pool *exec.Pool, top *dfsm.Machine, p P, tasks []pairTask, forbidden [][2]int) []pairResult {
	res := make([]pairResult, len(tasks))
	st := newLevelStart(top, p, forbidden)
	if st.violated {
		return res
	}
	pool.Run(len(tasks), func(c *exec.Ctx, k int) {
		t := tasks[k]
		cand, _ := cascade(c, top, st, t.seed, t.x, t.y, nil)
		res[k] = pairResult{cand: cand, ok: separatesAll(cand, forbidden)}
	})
	return res
}

// MinMergeClosureOn returns the Less-minimal merge closure of p that
// separates every forbidden pair — the pickCandidate winner of Algorithm
// 2's line-6 fan-out — without materializing the full candidate list, and
// records the level's outcomes in d for the next level. ok is false when
// no candidate passes (the descent has bottomed out).
//
// The first call after d.Reset, d.NextDescent or NewDescentState is level
// 0 and may start at any closed partition; a start that is not closed
// panics. Every later call must start at a partition coarser than or
// equal to the previous call's p — in a descent, the previous pick —
// which is what makes the previous level's outcomes reusable.
//
// Each finished closure is checked against forbidden (nil passes every
// closure). The winner is identical to the Less-minimum of
// MergeClosures(top, p, forbidden).
func MinMergeClosureOn(pool *exec.Pool, d *DescentState, top *dfsm.Machine, p P, forbidden [][2]int) (P, bool) {
	if p.NumBlocks() <= 1 {
		return P{}, false // bottom has no merge closures
	}
	if d.start.N() == 0 {
		d.coldLevel(pool, top, p, forbidden)
	} else {
		d.seededLevel(pool, top, p, forbidden)
	}
	d.stats.Levels++
	d.start = p
	d.closures, d.next = d.next, d.closures
	d.next.reset()

	var best P
	for _, c := range d.closures.items {
		if best.N() == 0 || c.Less(best) {
			best = c
		}
	}
	return best, best.N() > 0
}

// coldLevel evaluates level 0 at the closed p into d.next and d.rec:
// from the ⊤ carry when p is ⊤ of the carried top, with nothing to run
// when p already merges a forbidden pair, and otherwise in one pair-graph
// pass. A pass at ⊤ leaves its passing part in the carry, unless the
// descent is final. A p that is not closed has no quotient machine to
// search, and panics.
func (d *DescentState) coldLevel(pool *exec.Pool, top *dfsm.Machine, p P, forbidden [][2]int) {
	b := p.NumBlocks()
	n := b * (b - 1) / 2
	atTop := b == p.N()
	if atTop && d.carry.top == top {
		d.carriedLevel(n, forbidden)
		return
	}
	d.carry.release()
	st := newLevelStart(top, p, forbidden)
	if st.base.Sets() != b {
		panic("partition: level 0 at a partition that is not closed")
	}
	if st.violated {
		d.rec = resize(d.rec, n)
		for u := range d.rec {
			d.rec[u] = -1
		}
		d.stats.ColdClosures += n
		d.stats.ImpliedCascades += n
		return
	}
	c := pool.Acquire()
	defer pool.Release(c)
	d.table.pass(c, top, st, p, forbidden, &d.next, &d.stats, d.onClose)
	d.rec = d.table.comp
	if atTop && !d.final {
		d.keepCarry(top, forbidden)
	}
}

// keepCarry records the passing part of the level-0 pass at ⊤ just run:
// the level's closures and, per passing pair, its node and closure.
func (d *DescentState) keepCarry(top *dfsm.Machine, forbidden [][2]int) {
	c := &d.carry
	c.top, c.forbidden = top, forbidden
	c.closures = append(c.closures, d.next.items...)
	if len(c.closures) == 0 {
		return // nothing passed: the usual case, and no scan
	}
	for u, k := range d.rec {
		if k >= 0 {
			c.nodes = append(c.nodes, int32(u))
			c.of = append(c.of, k)
		}
	}
}

// carriedLevel evaluates level 0 at ⊤ of the carried top from the carry,
// without a pass or a cascade: every ⊤ pair fails but those carrying a
// closure that still separates every forbidden pair. Closures that fail
// are dropped from the carry with their pairs, and the survivors keep
// their d.next numbers, so the carry stays aligned with the level. All n
// pairs count as cold closures that were implied.
func (d *DescentState) carriedLevel(n int, forbidden [][2]int) {
	c := &d.carry
	remap := resize(d.remap, len(c.closures))
	d.remap = remap
	kept := c.closures[:0]
	for k, cl := range c.closures {
		remap[k] = -1
		if separatesAll(cl, forbidden) {
			remap[k] = d.next.index(cl)
			kept = append(kept, cl)
		}
	}
	clear(c.closures[len(kept):])
	c.closures = kept

	d.rec = resize(d.rec, n)
	for u := range d.rec {
		d.rec[u] = -1
	}
	w := 0
	for i, u := range c.nodes {
		if k := remap[c.of[i]]; k >= 0 {
			d.rec[u] = k
			c.nodes[w], c.of[w] = u, k
			w++
		}
	}
	c.nodes, c.of = c.nodes[:w], c.of[:w]
	c.forbidden = forbidden
	d.stats.ColdClosures += n
	d.stats.ImpliedCascades += n
}

// seededLevel evaluates a level below level 0 at p, which is coarser than
// d.start: it reads each block pair's previous outcome from d.rec, skips
// the pruned pairs, joins each distinct surviving seed with p once, and
// rewrites d.rec in place for p's block pairs. Node order is kept, and a
// pair's node at p is never past its node at d.start, so every entry is
// read before it is overwritten.
func (d *DescentState) seededLevel(pool *exec.Pool, top *dfsm.Machine, p P, forbidden [][2]int) {
	old := d.start.View()
	reps := firstStates(p, d.table.rep) // the pass's buffer, idle below level 0
	d.table.rep = reps
	remap := resize(d.remap, d.closures.Len())
	for k := range remap {
		remap[k] = -1
	}
	d.remap = remap
	var tasks []pairTask // one per distinct seed, with the first pair that carries it
	rec, n, live := d.rec, 0, 0
	for j := 1; j < len(reps); j++ {
		y := reps[j]
		oj := int32(old[y])
		for i := 0; i < j; i++ {
			x := reps[i]
			k := rec[node(int32(old[x]), oj)]
			if k >= 0 {
				if d.onClose != nil {
					d.onClose(x, y)
				}
				if remap[k] < 0 {
					remap[k] = int32(len(tasks))
					tasks = append(tasks, pairTask{x: x, y: y, seed: d.closures.items[k]})
				}
				k = remap[k]
				live++
			}
			rec[n] = k
			n++
		}
	}
	d.stats.SeededJoins += live
	d.stats.PrunedSkips += n - live

	// remap is read; its prefix now numbers each task's result in d.next.
	for k, r := range closePairs(pool, top, p, tasks, forbidden) {
		remap[k] = d.keep(r)
	}
	d.rec = rec[:n]
	for u, k := range d.rec {
		if k >= 0 {
			d.rec[u] = remap[k]
		}
	}
}

// keep returns the number of r's closure in d.next when it passed, or -1.
func (d *DescentState) keep(r pairResult) int32 {
	if !r.ok {
		return -1
	}
	return d.next.index(r.cand)
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
