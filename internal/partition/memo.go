package partition

import "sync/atomic"

// pairMemo is the within-level pair-implication memo of one descent level.
// It complements DescentState's two cross-level mechanisms (violation
// pruning and survivor seeding) with sharing *inside* a level: the
// candidate pairs of a level form an implication graph — pair p implies
// pair q when the closure cascade of p is forced to unite q's blocks —
// and along every implication edge the closures nest,
//
//	close(m ∪ {q}) ⊆ close(m ∪ {p})   (q's merges are a subset of p's),
//
// because the union of q inside p's cascade is itself forced, so
// everything q forces is forced for p too. Three exact reuses follow,
// all applied the moment a cascade is about to unite a pair whose memo
// entry is published:
//
//   - Implied violation: if q is recorded as violating the level
//     constraint (a forbidden pair collapsed, or the monotone keep
//     predicate rejected its closure), then p violates too — the cascade
//     aborts without finishing its own closure.
//
//   - Mutual implication (one SCC of the implication graph): if q's
//     finished closure also unites p's own two blocks, then p implies q
//     and q implies p, so the closures are equal — the cascade returns
//     q's memoized partition outright, sharing its backing vector.
//
//   - Cascade absorption: otherwise q's finished closure is a closed
//     partition wholly contained in p's final closure, so its blocks are
//     united wholesale (an O(N·α) scan with no propagation pushes, by
//     the same closed-under-join argument as a survivor seed) instead of
//     re-walking q's entire transition-table cascade.
//
// Entries are keyed by the canonical induced pair — the ordered pair of
// level-start block ids, triangular-indexed — and published exactly once,
// by the pool task that evaluated that pair. Publication is contention-
// safe under work stealing without locks: the partition value is written
// first, then the state word is atomically released; readers atomically
// acquire the state word before touching the partition. A reader that
// races ahead of publication simply sees an empty entry and proceeds
// cold, so the memo never blocks, and the miss path allocates nothing.
//
// The memo is valid only for the level-start partition it was reset
// with (keys are that partition's block ids, and entries assume its
// constraint), so the descent resets it at every level and
// DescentState.Reset drops it between descents.
type pairMemo struct {
	blocks  int
	blockOf []int // level-start partition's block vector (shared, read-only)
	state   []atomic.Uint32
	parts   []P
}

// Memo entry states: bit 0 says parts holds the pair's finished closure,
// bit 1 says the pair's closure is known to violate the level constraint.
// A guarded abort publishes memoViolated alone (no closure was finished);
// a keep-rejected closure publishes both (the closure is still a valid
// seed for other cascades).
const (
	memoHasPart  uint32 = 1 << 0
	memoViolated uint32 = 1 << 1
)

// reset prepares the memo for one level starting at p, reusing the
// backing arrays across levels. It must be called (and the previous
// level's tasks joined) before any task of the new level runs; the plain
// stores here are ordered before the workers' atomic loads by the pool's
// fan-out barrier.
func (mm *pairMemo) reset(p P) {
	mm.blocks = p.NumBlocks()
	mm.blockOf = p.View()
	n := mm.blocks * (mm.blocks - 1) / 2
	if cap(mm.state) >= n {
		mm.state = mm.state[:n]
		mm.parts = mm.parts[:n]
		for i := range mm.state {
			mm.state[i].Store(0)
			mm.parts[i] = P{}
		}
	} else {
		mm.state = make([]atomic.Uint32, n)
		mm.parts = make([]P, n)
	}
}

// drop releases everything the memo holds. DescentState.Reset calls it so
// a stale memo can never leak partitions — or block-id keys of the old
// level-start partition — into the next descent.
func (mm *pairMemo) drop() {
	mm.blocks = 0
	mm.blockOf = nil
	mm.state = mm.state[:0]
	mm.parts = mm.parts[:0]
}

// empty reports whether the memo holds no level state (post-drop).
func (mm *pairMemo) empty() bool {
	return mm.blockOf == nil && len(mm.state) == 0 && len(mm.parts) == 0
}

// idx triangular-indexes the block pair {bi, bj}, bi != bj.
func (mm *pairMemo) idx(bi, bj int) int {
	if bi > bj {
		bi, bj = bj, bi
	}
	return bj*(bj-1)/2 + bi
}

// lookup returns the published state of the canonical induced pair of
// states a and b (which must lie in distinct level-start blocks), and the
// finished closure when state has memoHasPart set.
func (mm *pairMemo) lookup(a, b int) (uint32, P) {
	i := mm.idx(mm.blockOf[a], mm.blockOf[b])
	st := mm.state[i].Load()
	if st&memoHasPart != 0 {
		return st, mm.parts[i]
	}
	return st, P{}
}

// publish records the outcome of the pair (x, y)'s own evaluation: cand
// is its finished closure when one was computed (absent for guarded
// aborts), ok its verdict against the level constraint. Each pair is
// published by exactly one task, so the non-atomic parts write is safe;
// the atomic state store orders it for concurrent lookups.
func (mm *pairMemo) publish(x, y int, cand P, ok bool) {
	var st uint32
	if cand.N() > 0 {
		st |= memoHasPart
	}
	if !ok {
		st |= memoViolated
	}
	if st == 0 {
		return
	}
	i := mm.idx(mm.blockOf[x], mm.blockOf[y])
	if st&memoHasPart != 0 {
		mm.parts[i] = cand
	}
	mm.state[i].Store(st)
}
