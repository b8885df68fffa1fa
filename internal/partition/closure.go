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
// pool runs and only read while it does. Every cascade of the fan-out
// starts from a copy of its forest instead of re-deriving the level start
// state by state.
type levelStart struct {
	// base is the union-find of close(p), flattened so parent[s] is s's
	// root. Descent levels start at closed partitions; closing p first
	// serves Close and CloseMergingStates, whose p need not be closed:
	// close(p ∪ {x~y}) = close(close(p) ∪ {x~y}).
	base *UnionFind
	// violated reports that close(p) already merges a forbidden pair —
	// (s, s) included, which no partition separates — so every task of
	// the fan-out fails without running a cascade.
	violated bool
}

// newLevelStart builds the fan-out setup for level start p: close(p) by
// the from-⊤ propagation (unite p's blocks, push every union, run the
// fixpoint), flattened, then checked against forbidden.
func newLevelStart(top *dfsm.Machine, p P, forbidden [][2]int) *levelStart {
	sc := &closureScratch{uf: NewUnionFind(top.NumStates())}
	sc.absorb(p, true)
	sc.propagate(top, sc.stack, 0, 0, nil)
	sc.uf.flatten()
	st := &levelStart{base: sc.uf}
	for _, e := range forbidden {
		if sc.uf.parent[e[0]] == sc.uf.parent[e[1]] {
			st.violated = true
			break
		}
	}
	return st
}

// closureScratch is one worker's closure working set — union-find forest,
// propagation stack and first-of-block table — kept in the worker's
// closureSlot across cascades and across whole fan-outs so none of them
// allocates per closure.
type closureScratch struct {
	uf    *UnionFind
	stack []statePair
	first []int // first state seen per block id of the partition being absorbed
}

// closureSlot is the per-worker scratch slot holding a *closureScratch.
var closureSlot = exec.NewSlotID()

// scratchFor returns the context's closure scratch set up for one cascade
// of st's fan-out: the forest a copy of st's base and the stack empty.
func scratchFor(c *exec.Ctx, st *levelStart) *closureScratch {
	s, _ := c.Get(closureSlot).(*closureScratch)
	if s == nil {
		s = &closureScratch{uf: &UnionFind{}}
		c.Set(closureSlot, s)
	}
	s.uf.copyFrom(st.base)
	s.stack = s.stack[:0]
	return s
}

// absorb unites the states of every block of m, pushing each union for
// propagation when push is set. Without push, m must be closed:
// same-block states then have same-block successors, and every block is
// fully united by the end of the pass, so transitivity through the
// forest covers the cross effects and no propagation is owed.
func (s *closureScratch) absorb(m P, push bool) {
	if m.NumBlocks() == m.N() {
		return // singletons: nothing to unite
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
		if s.uf.Union(prev, st) && push {
			s.stack = append(s.stack, statePair{prev, st})
		}
	}
}

// cascadeOutcome classifies how one pair of an all-cold level resolved,
// for the level-sharing counters of DescentStats. The level's pair-graph
// pass (sccTable) is serial and ordered by the task list, so the
// classification is as deterministic as the returned partitions and
// verdicts.
type cascadeOutcome uint8

const (
	// cascadeCold: the pair's own cascade ran entirely from scratch (no
	// pass, or its SCC's cascade met no finished successor closure).
	cascadeCold cascadeOutcome = iota
	// cascadeSeeded: the pair's own cascade absorbed at least one finished
	// successor closure wholesale instead of re-walking its
	// transition-table cascade.
	cascadeSeeded
	// cascadeImplied: the pair was resolved without a cascade of its own —
	// it shares the verdict of its SCC's root, the pass's search failed it
	// when it aborted (it reaches a forbidden pair or a failed node), or
	// its cascade met a successor closure equal to its own and returned it.
	cascadeImplied
)

// cascade is the package's one Hartmanis–Stearns closure kernel: it
// computes close(p ∨ seed ∪ {x~y}) for the level start p that st was
// built from. The worker's forest starts as a copy of st's base,
// close(p); the optional closed seed (zero P for none) is joined into it
// without propagation pushes, then x is united with y (x == y merges
// nothing) and the propagation fixpoint runs: merge two states, then
// merge their successors under every event until nothing changes. The
// merged start partition is never materialized, which spares every
// closure of a fan-out a vector copy and an FNV hash.
//
// A seed is the incremental descent's survivor join: with seed =
// close(m ∪ {x~y}) from the previous level and p the new level start m′,
// closed partitions being closed under join (a chain of same-block steps
// in p or seed maps under every event to a chain of same-block steps)
// makes the result close(m′ ∪ {x~y}) — the residual fixpoint never fires
// on closed inputs, so the re-evaluation is O(N·α) union-find work.
//
// The cascade knows no constraint: callers check the finished closure
// against their forbidden pairs.
//
// A non-nil tab is the level's pair-graph pass judging the SCC of (x, y)
// (p must be the level start it was reset with). Each union the cascade
// is about to propagate first looks up the node of its block pair: a
// node of the same SCC propagates as usual; any other node belongs to a
// finished SCC that passed (the pass aborts its search, without a
// cascade, as soon as it reaches a failed node), and its closure, when it
// also unites x and y, IS this pair's closure and is returned as-is;
// otherwise it is absorbed wholesale. The result is bit-identical to the
// table-free cascade in every case — the table only changes which unions
// pay for transition-table walks.
//
// Complexity: O(N) for the copy plus O(N·|Σ|·α(N)) unions in the worst
// case.
func cascade(c *exec.Ctx, top *dfsm.Machine, st *levelStart, seed P, x, y int, tab *sccTable) (P, cascadeOutcome) {
	sc := scratchFor(c, st)
	if seed.N() > 0 {
		sc.absorb(seed, false)
	}
	stack := sc.stack
	if x != y && sc.uf.Union(x, y) {
		stack = append(stack, statePair{x, y})
	}
	implied, outcome := sc.propagate(top, stack, x, y, tab)
	if outcome == cascadeImplied {
		return implied, outcome
	}
	return sc.uf.Partition(), outcome
}

// propagate runs the closure fixpoint over the pending unions on stack,
// keeping the grown stack for reuse. With a table (see cascade) it may
// resolve early: cascadeImplied returns the finished closure of the pair
// (x, y) as implied.
func (s *closureScratch) propagate(top *dfsm.Machine, stack []statePair, x, y int, tab *sccTable) (implied P, outcome cascadeOutcome) {
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
			if tab != nil {
				if m, done := tab.lookup(ta, tb); done {
					if m.BlockOf(x) == m.BlockOf(y) {
						return m, cascadeImplied
					}
					outcome = cascadeSeeded
					s.absorb(m, false)
					continue
				}
			}
			uf.Union(ta, tb)
			stack = append(stack, statePair{ta, tb})
		}
	}
	return P{}, outcome
}

// closeOnDefault runs one closure through the fan-out path — its own
// level start, then one cascade — inline on a context of the shared
// default pool.
func closeOnDefault(top *dfsm.Machine, p P, x, y int) P {
	st := newLevelStart(top, p, nil)
	pool := exec.Default()
	c := pool.Acquire()
	defer pool.Release(c)
	cand, _ := cascade(c, top, st, P{}, x, y, nil)
	return cand
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
	return closeOnDefault(top, p, 0, 0)
}

// CloseMergingStates is Close applied to the partition obtained from p by
// merging the blocks containing states x and y. It is the inner step of the
// lower-cover computation.
func CloseMergingStates(top *dfsm.Machine, p P, x, y int) P {
	return closeOnDefault(top, p, x, y)
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
