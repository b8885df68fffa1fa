package partition

import (
	"fmt"

	"repro/internal/dfsm"
	"repro/internal/exec"
)

// IsClosed reports whether p is a closed (substitution-property) partition
// of top's state set: every event maps each block into a single block
// (Section 2.1, Definition of closed partition).
func IsClosed(top *dfsm.Machine, p P) bool {
	if p.N() != top.NumStates() {
		return false
	}
	for e := 0; e < top.NumEvents(); e++ {
		// image[b] is the block that block b maps into under event e.
		image := make([]int, p.NumBlocks())
		for i := range image {
			image[i] = -1
		}
		for s := 0; s < top.NumStates(); s++ {
			b := p.BlockOf(s)
			t := p.BlockOf(top.NextByIndex(s, e))
			if image[b] == -1 {
				image[b] = t
			} else if image[b] != t {
				return false
			}
		}
	}
	return true
}

// statePair is a pending merge whose successor merges still need
// propagating during closure.
type statePair struct{ a, b int }

// levelStart is one closure fan-out's shared setup, built once before the
// pool runs and only read while it does: the level start's forest and
// the armed forbidden-pair guard. Every cascade of the fan-out starts
// from a copy of it instead of re-deriving the level start state by
// state.
type levelStart struct {
	// base is the union-find of close(p), flattened so parent[s] is s's
	// root. Closing p first keeps a fan-out over a p that is not closed
	// exact: close(p ∪ {x~y}) = close(close(p) ∪ {x~y}).
	base *UnionFind
	// violated reports that close(p) already merges a forbidden pair —
	// (s, s) included, which no partition separates — so every task of
	// the fan-out fails without running a cascade.
	violated bool
	// The guard, armed when the forbidden list is non-empty: ends lists
	// the distinct forbidden-pair endpoints and partners[i] the states
	// ends[i] must stay apart from.
	ends     []int
	partners [][]int
}

// newLevelStart builds the fan-out setup for level start p: close(p) by
// the from-⊤ propagation (unite p's blocks, push every union, run the
// fixpoint), flattened, then the guard over forbidden.
func newLevelStart(top *dfsm.Machine, p P, forbidden [][2]int) *levelStart {
	sc := &closureScratch{uf: NewUnionFind(top.NumStates())}
	sc.absorb(p, true)
	sc.propagate(top, sc.stack, 0, 0, nil)
	sc.uf.flatten()
	st := &levelStart{base: sc.uf}
	if len(forbidden) == 0 {
		return st
	}
	root := st.base.parent
	index := make(map[int]int, 2*len(forbidden))
	var deg []int
	for _, e := range forbidden {
		if root[e[0]] == root[e[1]] {
			st.violated = true
			return st
		}
		for _, s := range e {
			i, ok := index[s]
			if !ok {
				i = len(st.ends)
				index[s] = i
				st.ends = append(st.ends, s)
				deg = append(deg, 0)
			}
			deg[i]++
		}
	}
	// Carve every endpoint's partner list out of one backing array.
	flat := make([]int, 2*len(forbidden))
	st.partners = make([][]int, len(st.ends))
	for i, d := range deg {
		st.partners[i], flat = flat[:0:d], flat[d:]
	}
	for _, e := range forbidden {
		i, j := index[e[0]], index[e[1]]
		st.partners[i] = append(st.partners[i], e[1])
		st.partners[j] = append(st.partners[j], e[0])
	}
	return st
}

// closureScratch is one worker's closure working set — union-find forest,
// propagation stack, first-of-block table, and the guard's tag lists —
// kept in the worker's closureSlot across cascades and across whole
// fan-outs so none of them allocates per closure.
type closureScratch struct {
	uf    *UnionFind
	stack []statePair
	first []int // first state seen per block id of the partition being absorbed
	// Guard state of the running cascade: g is its fan-out's levelStart
	// when the guard is armed (nil otherwise). The endpoints (indices into
	// g.ends) inside root r's set form a linked list: head[r] is the
	// first (-1 for none) and next[i] follows endpoint i. Outside a
	// cascade every head is -1.
	g    *levelStart
	head []int32
	next []int32
}

// closureSlot is the per-worker scratch slot holding a *closureScratch.
var closureSlot = exec.NewSlotID()

// scratchFor returns the context's closure scratch set up for one cascade
// of st's fan-out: the forest a copy of st's base and, when st's guard is
// armed, each endpoint tagged at its base root. Pair with release.
func scratchFor(c *exec.Ctx, st *levelStart) *closureScratch {
	s, _ := c.Get(closureSlot).(*closureScratch)
	if s == nil {
		s = &closureScratch{uf: &UnionFind{}}
		c.Set(closureSlot, s)
	}
	s.uf.copyFrom(st.base)
	s.stack = s.stack[:0]
	if len(st.ends) == 0 {
		return s
	}
	s.g = st
	if n := len(st.base.parent); cap(s.head) >= n {
		s.head = s.head[:n]
	} else {
		s.head = make([]int32, n)
		for i := range s.head {
			s.head[i] = -1
		}
	}
	if cap(s.next) >= len(st.ends) {
		s.next = s.next[:len(st.ends)]
	} else {
		s.next = make([]int32, len(st.ends))
	}
	for i, e := range st.ends {
		r := st.base.parent[e]
		s.next[i] = s.head[r]
		s.head[r] = int32(i)
	}
	return s
}

// release disarms the guard and clears the tag lists the cascade wrote —
// the heads at the roots of the endpoints' sets, the only ones unite
// leaves set — so the next cascade on this worker, whatever its fan-out,
// starts from empty lists.
func (s *closureScratch) release() {
	if s.g == nil {
		return
	}
	for _, e := range s.g.ends {
		s.head[s.uf.Find(e)] = -1
	}
	s.g = nil
}

// unite merges the sets of a and b. merged reports that they were
// distinct; ok=false reports that the union collapsed a forbidden pair.
// Violation detection is incremental: each root carries the forbidden-pair
// endpoints ("tags") inside its set, and a union only checks the absorbed
// root's tags against their partners' roots — O(tags·deg) per union
// instead of an O(|forbidden|) rescan with two Finds per pair. The
// absorbed root's list is spliced onto the surviving root's even on a
// violation, which keeps every set head at a current root.
func (s *closureScratch) unite(a, b int) (merged, ok bool) {
	uf := s.uf
	if s.g == nil {
		return uf.Union(a, b), true
	}
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false, true
	}
	uf.Union(ra, rb)
	root := uf.Find(ra)
	child := ra + rb - root // the absorbed root
	h := s.head[child]
	if h < 0 {
		return true, true
	}
	ok = true
	tail := h
	for i := h; i >= 0; i = s.next[i] {
		tail = i
		for _, t := range s.g.partners[i] {
			if !ok {
				break
			}
			ok = uf.Find(t) != root
		}
	}
	s.next[tail] = s.head[root]
	s.head[root] = h
	s.head[child] = -1
	return true, ok
}

// absorb unites the states of every block of m, pushing each union for
// propagation when push is set; false reports a forbidden-pair violation.
// Without push, m must be closed: same-block states then have same-block
// successors, and every block is fully united by the end of the pass, so
// transitivity through the forest covers the cross effects and no
// propagation is owed.
func (s *closureScratch) absorb(m P, push bool) bool {
	if m.NumBlocks() == m.N() {
		return true // singletons: nothing to unite
	}
	if blocks := m.NumBlocks(); cap(s.first) >= blocks {
		s.first = s.first[:blocks]
	} else {
		s.first = make([]int, blocks)
	}
	for i := range s.first {
		s.first[i] = -1
	}
	for st, b := range m.View() {
		prev := s.first[b]
		if prev < 0 {
			s.first[b] = st
			continue
		}
		merged, ok := s.unite(prev, st)
		if !ok {
			return false
		}
		if merged && push {
			s.stack = append(s.stack, statePair{prev, st})
		}
	}
	return true
}

// cascadeOutcome classifies how a memo-aware closure cascade resolved,
// for the level-sharing counters of DescentStats. The classification is
// scheduling-dependent under the pooled fan-out (whether a neighbouring
// pair's entry was published in time is a race the memo is designed to
// tolerate); the returned partitions and verdicts are not.
type cascadeOutcome uint8

const (
	// cascadeCold: the cascade ran entirely from scratch (no memo, or
	// every induced pair it touched was still unpublished).
	cascadeCold cascadeOutcome = iota
	// cascadeSeeded: the cascade absorbed at least one memoized closure
	// wholesale instead of re-walking its transition-table cascade.
	cascadeSeeded
	// cascadeImplied: the evaluation was resolved outright by an
	// implication — an induced pair's published violation aborted it, or
	// a mutually-implying pair's published closure WAS the answer.
	cascadeImplied
)

// cascade is the package's one Hartmanis–Stearns closure kernel: it
// computes close(p ∨ seed ∪ {x~y}) for the level start p that st was
// built from (st must not be violated). The worker's forest starts as a
// copy of st's base, close(p); the optional closed seed (zero P for none)
// is joined into it without propagation pushes, then x is united with y
// (x == y merges nothing) and the propagation fixpoint runs: merge two
// states, then merge their successors under every event until nothing
// changes. The merged start partition is never materialized, which spares
// every closure of a fan-out a vector copy and an FNV hash.
//
// A seed is the incremental descent's survivor join: with seed =
// close(m ∪ {x~y}) from the previous level and p the new level start m′,
// closed partitions being closed under join (a chain of same-block steps
// in p or seed maps under every event to a chain of same-block steps)
// makes the result close(m′ ∪ {x~y}) — the residual fixpoint never fires
// on closed inputs, so the re-evaluation is O(N·α) union-find work.
//
// When st's guard is armed, every union is guarded: the kernel returns
// ok=false at the first union that merges the two endpoints of any
// forbidden pair, typically after a handful of unions. An unarmed guard
// takes the plain union path, free of the guard's extra Finds and tag
// bookkeeping.
//
// A non-nil memo is the level's pair-implication memo (p must be the
// level start it was reset with). Each union the cascade is about to
// propagate first consults the memo entry of its canonical induced pair:
// a published violation aborts the whole evaluation (ok=false — sound
// only under a constraint monotone under coarsening); a published closure
// that also unites x and y IS this pair's closure (mutual implication)
// and is returned as-is; any other published closure is absorbed
// wholesale. Absorbed closures still pass the guard: the absorbed
// partition respects the forbidden pairs on its own, but its sets can
// collide with sets this cascade already built, and such a collision is
// a true violation of this pair. The result is bit-identical to the
// memo-free cascade in every case — the memo only changes which unions
// pay for transition-table walks.
//
// Complexity: O(N) for the copy plus O(N·|Σ|·α(N)) unions in the worst
// case.
func cascade(c *exec.Ctx, top *dfsm.Machine, st *levelStart, seed P, x, y int, memo *pairMemo) (P, cascadeOutcome, bool) {
	sc := scratchFor(c, st)
	defer sc.release()
	if seed.N() > 0 && !sc.absorb(seed, false) {
		return P{}, cascadeCold, false
	}
	stack := sc.stack
	if x != y {
		merged, ok := sc.unite(x, y)
		if !ok {
			return P{}, cascadeCold, false
		}
		if merged {
			stack = append(stack, statePair{x, y})
		}
	}
	implied, outcome, ok := sc.propagate(top, stack, x, y, memo)
	if !ok || outcome == cascadeImplied {
		return implied, outcome, ok
	}
	return sc.uf.Partition(), outcome, true
}

// propagate runs the closure fixpoint over the pending unions on stack,
// keeping the grown stack for reuse. With a memo (see cascade) it may
// resolve early: cascadeImplied with ok returns the memoized closure of
// the pair (x, y) as implied.
func (s *closureScratch) propagate(top *dfsm.Machine, stack []statePair, x, y int, memo *pairMemo) (implied P, outcome cascadeOutcome, ok bool) {
	defer func() { s.stack = stack[:0] }()
	uf := s.uf
	for len(stack) > 0 {
		pr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := 0; e < top.NumEvents(); e++ {
			ta := top.NextByIndex(pr.a, e)
			tb := top.NextByIndex(pr.b, e)
			if uf.Find(ta) == uf.Find(tb) {
				continue
			}
			if memo != nil {
				st, m := memo.lookup(ta, tb)
				if st&memoViolated != 0 {
					return P{}, cascadeImplied, false
				}
				if st&memoHasPart != 0 {
					if m.BlockOf(x) == m.BlockOf(y) {
						return m, cascadeImplied, true
					}
					outcome = cascadeSeeded
					if !s.absorb(m, false) {
						return P{}, outcome, false
					}
					continue
				}
			}
			if _, ok := s.unite(ta, tb); !ok {
				return P{}, outcome, false
			}
			stack = append(stack, statePair{ta, tb})
		}
	}
	return P{}, outcome, true
}

// closeOnDefault runs one closure through the fan-out path — its own
// level start and guard, then one cascade — inline on a context of the
// shared default pool.
func closeOnDefault(top *dfsm.Machine, p P, x, y int, forbidden [][2]int) (P, bool) {
	st := newLevelStart(top, p, forbidden)
	if st.violated {
		return P{}, false
	}
	pool := exec.Default()
	c := pool.Acquire()
	defer pool.Release(c)
	cand, _, ok := cascade(c, top, st, P{}, x, y, nil)
	return cand, ok
}

// Close computes the finest closed partition that is coarser than or equal
// to p — i.e. the largest machine (in the paper's order, the maximal closed
// partition ≤ is reversed: Close(p) is the closed partition with the most
// blocks among those that merge everything p merges). This is the classical
// Hartmanis–Stearns closure used when computing lower covers: merge two
// states and propagate the forced merges of their successors to a fixpoint.
//
// Complexity: O(N·|Σ|·α(N)) unions in the worst case.
func Close(top *dfsm.Machine, p P) P {
	c, _ := closeOnDefault(top, p, 0, 0, nil)
	return c
}

// CloseMergingStates is Close applied to the partition obtained from p by
// merging the blocks containing states x and y. It is the inner step of the
// lower-cover computation.
func CloseMergingStates(top *dfsm.Machine, p P, x, y int) P {
	c, _ := closeOnDefault(top, p, x, y, nil)
	return c
}

// CloseGuarded is Close that aborts as soon as the closure would merge the
// two endpoints of any forbidden pair, returning ok=false. Algorithm 2
// uses it to discard lower-cover candidates that stop covering a weakest
// fault-graph edge without paying for the full closure: the abort fires
// mid-propagation, typically after a handful of unions.
func CloseGuarded(top *dfsm.Machine, p P, forbidden [][2]int) (P, bool) {
	return closeOnDefault(top, p, 0, 0, forbidden)
}

// Quotient materializes the machine corresponding to a closed partition of
// top: states are blocks, the initial state is the block of top's initial
// state, and transitions follow the block images. Returns an error if p is
// not closed. State names are the paper's set representation, e.g.
// "{t0,t3}".
func Quotient(top *dfsm.Machine, p P, name string) (*dfsm.Machine, error) {
	if !IsClosed(top, p) {
		return nil, fmt.Errorf("partition: quotient %q: partition %s is not closed", name, p)
	}
	blocks := p.Blocks()
	names := make([]string, len(blocks))
	for b, blk := range blocks {
		s := "{"
		for i, x := range blk {
			if i > 0 {
				s += ","
			}
			s += top.StateName(x)
		}
		names[b] = s + "}"
	}
	delta := make([][]int, len(blocks))
	for b, blk := range blocks {
		delta[b] = make([]int, top.NumEvents())
		for e := 0; e < top.NumEvents(); e++ {
			delta[b][e] = p.BlockOf(top.NextByIndex(blk[0], e))
		}
	}
	return dfsm.NewMachine(name, names, top.Events(), delta, p.BlockOf(top.Initial()))
}

// MustQuotient is Quotient that panics on error.
func MustQuotient(top *dfsm.Machine, p P, name string) *dfsm.Machine {
	m, err := Quotient(top, p, name)
	if err != nil {
		panic(err)
	}
	return m
}
