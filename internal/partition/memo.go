package partition

import (
	"repro/internal/dfsm"
	"repro/internal/exec"
)

// sccTable evaluates one all-cold descent level as a single serial pass
// over the pair graph of the quotient machine ⊤/p, where p is the level
// start (closed). Its nodes are the unordered block pairs {i, j} of p,
// and its edges are the Hartmanis–Stearns pair algebra's successor map
// {i, j} → {δ(i,e), δ(j,e)} (no edge where both blocks map into one).
// The merge closure of a pair is the equivalence generated by every pair
// reachable from it, so closures nest along edges,
//
//	close(p ∪ {v}) ⊆ close(p ∪ {u})   whenever v is reachable from u,
//
// and all pairs of one strongly connected component (SCC) have equal
// closures. An iterative Tarjan search (an explicit frame stack, since a
// chain of pairs can be B²/2 deep) emits the SCCs in reverse topological
// order, and it fails fast:
//
//   - It aborts when it opens a forbidden pair, explores an edge into a
//     failed node, or emits an SCC whose cascade fails. Every node on the
//     stack reaches the DFS path and so the failing node, and the
//     constraint is monotone under coarsening: the abort fails them all
//     without a cascade, and the task-order loop goes on.
//   - An emitted SCC thus has no forbidden member and only passing
//     successors, and one cascade of its Tarjan root judges it. Each
//     union it is about to propagate first looks up the node of its block
//     pair. A node of a finished SCC has a passing closure, which is
//     absorbed wholesale, or returned outright when it also unites the
//     root's own two blocks (the closures are then equal). The finished
//     closure is then checked against every forbidden pair, which catches
//     a pair merged only transitively.
//
// Every member shares the SCC's verdict and closure, so the pass interns
// one closure per passing SCC and counts the implied/seeded/cold split per
// SCC. When the search is done, comp is rewritten in place into the
// level's outcome record: per node, the number of its closure in the
// level's set, or -1 once it failed. The pass is serial and its order is
// fixed by the task order, so the record and the split are deterministic.
//
// Per node the table holds index, low and comp as int32 plus a forbidden
// byte: 13 B, and no partition. Per emitted SCC it holds one int32. The
// buffers survive across levels, descents and (through the descent-state
// pool) calls; release drops the only partition references it holds.
type sccTable struct {
	// The level start as a quotient machine: blockOf is p's block vector
	// (read-only view), rep[b] the least state of block b, and
	// next[b*events+e] the block b maps into under event e.
	events  int
	blockOf []int
	rep     []int
	next    []int32

	// Per node, triangular-indexed: Tarjan's visit index (-1 while
	// unvisited) and low link, the SCC id (-1 while on the stack; after
	// the pass, the record), and whether it is a forbidden pair.
	index, low, comp []int32
	forbidden        []bool

	// Entry aborted (-1), then per emitted SCC: the number of its closure
	// in closures, the level's set of passing closures, or -1 if it failed.
	sccs     []int32
	closures *Set

	frames  []sccFrame
	stack   []int32
	counter int32
	cur     int32 // the SCC whose cascade is running
}

// aborted is the entry of sccs shared by the nodes an abort failed.
const aborted = 0

// sccFrame is one open node u of the Tarjan search: its blocks i < j and
// the next event whose successor it explores.
type sccFrame struct{ u, i, j, e int32 }

// node triangular-indexes the block pair {i, j}, i < j.
func node(i, j int32) int { return int(j)*(int(j)-1)/2 + int(i) }

// reset prepares the table for a level starting at the closed p.
func (t *sccTable) reset(top *dfsm.Machine, p P) {
	b := p.NumBlocks()
	t.events = top.NumEvents()
	t.blockOf = p.View()
	t.rep = firstStates(p, t.rep)
	t.next = resize(t.next, b*t.events)
	for blk, s := range t.rep {
		for e := 0; e < t.events; e++ {
			t.next[blk*t.events+e] = int32(t.blockOf[top.NextByIndex(s, e)])
		}
	}
	n := b * (b - 1) / 2
	t.index = resize(t.index, n)
	t.low = resize(t.low, n)
	t.comp = resize(t.comp, n)
	t.forbidden = resize(t.forbidden, n)
	for i := range t.index {
		t.index[i] = -1
	}
	clear(t.forbidden)
	t.sccs = append(t.sccs[:0], -1) // aborted
	t.counter = 0
}

// release drops every partition reference the table holds, keeping the
// capacity. DescentState.Reset calls it so no partition of one descent
// outlives it.
func (t *sccTable) release() {
	t.blockOf = nil
	t.closures = nil
}

// firstStates returns, in buf, the least state of each block of p (its
// representative), in block order.
func firstStates(p P, buf []int) []int {
	buf = resize(buf, p.NumBlocks())
	for i := range buf {
		buf[i] = -1
	}
	for s, blk := range p.View() {
		if buf[blk] < 0 {
			buf[blk] = s
		}
	}
	return buf
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// pass evaluates the all-cold level at the closed start p that st was
// built from, which must not be violated. It walks the block pairs in
// task order (i-major, i < j), calls onClose for each on the caller, and
// searches from each one not yet visited. Passing SCC closures are
// interned into set, the level's cold closures and their split are
// counted into stats, and comp is left as the level's record.
func (t *sccTable) pass(c *exec.Ctx, top *dfsm.Machine, st *levelStart, p P, forbidden [][2]int, set *Set, stats *DescentStats, onClose func(x, y int)) {
	t.reset(top, p)
	t.closures = set
	// Not violated, so every forbidden pair spans two blocks of p: a pair
	// inside one block would index node(i, i), which aliases node(0, i+1).
	for _, e := range forbidden {
		t.forbidden[t.nodeOf(e[0], e[1])] = true
	}
	lv := &levelPass{t: t, c: c, top: top, st: st, forbidden: forbidden, stats: stats}
	b := int32(len(t.rep))
	for i := int32(0); i < b; i++ {
		for j := i + 1; j < b; j++ {
			if onClose != nil {
				onClose(t.rep[i], t.rep[j])
			}
			if u := node(i, j); t.index[u] < 0 {
				lv.search(u, i, j)
			}
		}
	}
	for u, k := range t.comp {
		t.comp[u] = t.sccs[k]
	}
	stats.ColdClosures += len(t.comp)
}

// nodeOf returns the node of the states a and b, which lie in distinct
// blocks.
func (t *sccTable) nodeOf(a, b int) int {
	i, j := int32(t.blockOf[a]), int32(t.blockOf[b])
	if i > j {
		i, j = j, i
	}
	return node(i, j)
}

// lookup returns the closure of the finished SCC holding the node of
// states a and b, or done=false when that node belongs to the SCC being
// judged. Every SCC reachable from the one being judged passed, so it
// has a closure.
func (t *sccTable) lookup(a, b int) (m P, done bool) {
	c := t.comp[t.nodeOf(a, b)]
	if c == t.cur {
		return P{}, false
	}
	return t.closures.items[t.sccs[c]], true
}

// levelPass is the per-level context of the pass's search.
type levelPass struct {
	t         *sccTable
	c         *exec.Ctx
	top       *dfsm.Machine
	st        *levelStart
	forbidden [][2]int
	stats     *DescentStats
}

// open pushes the unvisited node u of blocks i < j onto both stacks and
// aborts if it is a forbidden pair.
func (lv *levelPass) open(u int, i, j int32) {
	t := lv.t
	t.index[u], t.low[u], t.comp[u] = t.counter, t.counter, -1
	t.counter++
	t.stack = append(t.stack, int32(u))
	if t.forbidden[u] {
		lv.abort()
		return
	}
	t.frames = append(t.frames, sccFrame{u: int32(u), i: i, j: j})
}

// search runs Tarjan's algorithm from the unvisited node root of blocks
// i < j, judging each SCC as it is emitted, until it is done or aborts.
func (lv *levelPass) search(root int, i, j int32) {
	t := lv.t
	lv.open(root, i, j)
	for len(t.frames) > 0 {
		f := &t.frames[len(t.frames)-1]
		u := int(f.u)
		if int(f.e) < t.events {
			e := int(f.e)
			f.e++
			a, b := t.next[int(f.i)*t.events+e], t.next[int(f.j)*t.events+e]
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			switch v := node(a, b); {
			case t.index[v] < 0:
				lv.open(v, a, b)
			case t.comp[v] < 0:
				t.low[u] = min(t.low[u], t.index[v])
			case t.sccs[t.comp[v]] < 0:
				lv.abort()
			}
			continue
		}
		fi, fj := f.i, f.j
		t.frames = t.frames[:len(t.frames)-1]
		if t.low[u] == t.index[u] {
			lv.emit(u, fi, fj)
		} else {
			pu := int(t.frames[len(t.frames)-1].u)
			t.low[pu] = min(t.low[pu], t.low[u])
		}
	}
}

// emit pops the SCC rooted at node u (blocks i < j) off the stack and
// judges it with its root's cascade: a passing closure is interned into
// the level's set, and a failing one aborts the search. The SCC's members
// are counted into the split, all implied but the root.
func (lv *levelPass) emit(u int, i, j int32) {
	t := lv.t
	c := int32(len(t.sccs))
	size := 0
	for {
		w := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.comp[w] = c
		size++
		if int(w) == u {
			break
		}
	}
	t.cur = c
	cand, out := cascade(lv.c, lv.top, lv.st, P{}, t.rep[i], t.rep[j], t)
	k := int32(-1)
	if separatesAll(cand, lv.forbidden) {
		k = t.closures.index(cand)
	}
	t.sccs = append(t.sccs, k)
	lv.stats.ImpliedCascades += size - 1
	lv.stats.recordCascade(out)
	if k < 0 {
		lv.abort()
	}
}

// abort fails every node on the stack, which shares entry aborted and
// counts as implied, and clears both stacks, ending the search.
func (lv *levelPass) abort() {
	t := lv.t
	for _, w := range t.stack {
		t.comp[w] = aborted
	}
	lv.stats.ImpliedCascades += len(t.stack)
	t.stack, t.frames = t.stack[:0], t.frames[:0]
}
