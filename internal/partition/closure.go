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

// closureScratch bundles the per-closure working set — union-find forest,
// propagation stack, first-of-block table, and the forbidden-pair guard —
// so a merge-closure fan-out's thousands of closures per call can recycle
// buffers instead of allocating each time. One scratch lives in each exec
// worker's closureSlot, persisting across calls and across whole
// fan-outs; serial entry points share the same recycling through the
// pool's Do contexts.
type closureScratch struct {
	uf    *UnionFind
	stack []statePair
	first []int // first state seen per block id of the partition being absorbed
	// Guard state, live while guarded: tags[r] lists the forbidden-pair
	// endpoints currently in root r's set; adj[s] lists s's forbidden
	// partners.
	guarded bool
	tags    [][]int
	adj     [][]int
}

// closureSlot is the per-worker scratch slot holding a *closureScratch.
var closureSlot = exec.NewSlotID()

// scratchFor returns the context's closure scratch reset for an n-state
// closure, allocating it on the worker's first use.
func scratchFor(c *exec.Ctx, n int) *closureScratch {
	s, _ := c.Get(closureSlot).(*closureScratch)
	if s == nil {
		s = &closureScratch{uf: &UnionFind{}}
		c.Set(closureSlot, s)
	}
	s.uf.Reset(n)
	s.stack = s.stack[:0]
	return s
}

// guard arms the forbidden-pair index for n states; an empty forbidden
// list disarms it, so unite takes the plain union path. false reports a
// degenerate pair (s, s), which no partition separates.
func (s *closureScratch) guard(n int, forbidden [][2]int) bool {
	s.guarded = len(forbidden) > 0
	if !s.guarded {
		return true
	}
	if cap(s.tags) >= n {
		s.tags = s.tags[:n]
		s.adj = s.adj[:n]
		for i := range s.tags {
			s.tags[i] = s.tags[i][:0]
			s.adj[i] = s.adj[i][:0]
		}
	} else {
		s.tags = make([][]int, n)
		s.adj = make([][]int, n)
	}
	for _, e := range forbidden {
		x, y := e[0], e[1]
		if x == y {
			return false
		}
		if len(s.adj[x]) == 0 {
			s.tags[x] = append(s.tags[x], x)
		}
		if len(s.adj[y]) == 0 {
			s.tags[y] = append(s.tags[y], y)
		}
		s.adj[x] = append(s.adj[x], y)
		s.adj[y] = append(s.adj[y], x)
	}
	return true
}

// unite merges the sets of a and b. merged reports that they were
// distinct; ok=false reports that the union collapsed a forbidden pair.
// Violation detection is incremental: each root carries the forbidden-pair
// endpoints ("tags") inside its set, and a union only checks the absorbed
// root's tags against their partners' roots — O(tags·deg) per union
// instead of an O(|forbidden|) rescan with two Finds per pair.
func (s *closureScratch) unite(a, b int) (merged, ok bool) {
	uf := s.uf
	if !s.guarded {
		return uf.Union(a, b), true
	}
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false, true
	}
	uf.Union(ra, rb)
	root := uf.Find(ra)
	child := ra + rb - root // the absorbed root
	for _, x := range s.tags[child] {
		for _, t := range s.adj[x] {
			if uf.Find(t) == root {
				return true, false
			}
		}
	}
	s.tags[root] = append(s.tags[root], s.tags[child]...)
	s.tags[child] = s.tags[child][:0]
	return true, true
}

// absorb unites the states of every block of m, pushing each union for
// propagation when push is set; false reports a forbidden-pair violation.
// Without push, m must be closed: same-block states then have same-block
// successors, and every block is fully united by the end of the pass, so
// transitivity through the forest covers the cross effects and no
// propagation is owed.
func (s *closureScratch) absorb(m P, push bool) bool {
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
// computes close(p ∨ seed ∪ {x~y}). The union-find absorbs the optional
// closed seed (zero P for none) without propagation pushes, then unites
// p's blocks and x with y (x == y merges nothing), and runs the
// propagation fixpoint: merge two states, then merge their successors
// under every event until nothing changes. The merged start partition is
// never materialized, which spares every closure of a fan-out a vector
// copy and an FNV hash.
//
// A seed is the incremental descent's survivor join: with seed =
// close(m ∪ {x~y}) from the previous level and p the new level start m′,
// closed partitions being closed under join (a chain of same-block steps
// in p or seed maps under every event to a chain of same-block steps)
// makes the result close(m′ ∪ {x~y}) — the residual fixpoint never fires
// on closed inputs, so the re-evaluation is O(N·α) union-find work.
// Unions of p's blocks across two seed sets are still pushed, as defense
// in depth against a caller breaking the closedness precondition.
//
// A non-empty forbidden list guards every union: the kernel returns
// ok=false at the first union that merges the two endpoints of any
// forbidden pair, typically after a handful of unions. An empty list
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
// Complexity: O(N·|Σ|·α(N)) unions in the worst case.
func cascade(c *exec.Ctx, top *dfsm.Machine, p, seed P, x, y int, forbidden [][2]int, memo *pairMemo) (P, cascadeOutcome, bool) {
	sc := scratchFor(c, top.NumStates())
	if !sc.guard(top.NumStates(), forbidden) ||
		seed.N() > 0 && !sc.absorb(seed, false) ||
		!sc.absorb(p, true) {
		return P{}, cascadeCold, false
	}
	stack := sc.stack
	defer func() { sc.stack = stack }() // keep the grown stack for reuse
	if x != y {
		merged, ok := sc.unite(x, y)
		if !ok {
			return P{}, cascadeCold, false
		}
		if merged {
			stack = append(stack, statePair{x, y})
		}
	}
	uf := sc.uf
	outcome := cascadeCold
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
					if !sc.absorb(m, false) {
						return P{}, outcome, false
					}
					continue
				}
			}
			if _, ok := sc.unite(ta, tb); !ok {
				return P{}, outcome, false
			}
			stack = append(stack, statePair{ta, tb})
		}
	}
	return uf.Partition(), outcome, true
}

// closeOnDefault runs one cascade on a context of the shared default pool.
func closeOnDefault(top *dfsm.Machine, p P, x, y int, forbidden [][2]int) (P, bool) {
	pool := exec.Default()
	c := pool.Acquire()
	defer pool.Release(c)
	cand, _, ok := cascade(c, top, p, P{}, x, y, forbidden, nil)
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
