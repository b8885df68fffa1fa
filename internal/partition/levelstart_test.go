package partition

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/exec"
)

// naiveClose is the test-only reference closure, with no union-find: a
// fixpoint over a block-label vector that, whenever the successors of one
// block under an event land in two blocks, relabels one of them into the
// other, until a full pass finds nothing to merge.
func naiveClose(top *dfsm.Machine, assign []int) P {
	lab := append([]int(nil), assign...)
	img := make([]int, len(lab))
	for changed := true; changed; {
		changed = false
		for e := 0; e < top.NumEvents(); e++ {
			for i := range img {
				img[i] = -1
			}
			for s, l := range lab {
				t := lab[top.NextByIndex(s, e)]
				switch u := img[l]; {
				case u < 0:
					img[l] = t
				case u != t:
					for i := range lab {
						if lab[i] == t {
							lab[i] = u
						}
					}
					changed = true
				}
			}
		}
	}
	return FromAssignment(lab)
}

// pairClosures returns the naive closure of p with each block pair
// merged, in block-pair order.
func pairClosures(top *dfsm.Machine, p P) []P {
	blocks := p.Blocks()
	var out []P
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			assign := p.Assignment()
			for _, s := range blocks[j] {
				assign[s] = i
			}
			out = append(out, naiveClose(top, assign))
		}
	}
	return out
}

// refMergeClosures is the reference MergeClosuresOn over p's pair
// closures: keep each that separates every forbidden pair and passes
// keep, deduplicated in order.
func refMergeClosures(closures []P, forbidden [][2]int, keep func(P) bool) []P {
	seen := map[string]bool{}
	var out []P
	for _, c := range closures {
		ok := keep == nil || keep(c)
		for _, e := range forbidden {
			ok = ok && c.Separates(e[0], e[1])
		}
		if ok && !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, c)
		}
	}
	return out
}

// productTop returns the reachable product of three seeded random
// machines over partly shared alphabets, resized until it has between lo
// and hi states. A lone random machine closes almost every merge to one
// block; a product keeps a rich lattice of closed partitions, as the
// paper's tops do.
func productTop(t *testing.T, rng *rand.Rand, lo, hi int) *dfsm.Machine {
	t.Helper()
	alphabets := [][]string{{"a", "b"}, {"a", "c"}, {"d"}}
	for {
		ms := make([]*dfsm.Machine, len(alphabets))
		for i, alpha := range alphabets {
			ms[i] = dfsm.RandomMachine(rng, fmt.Sprintf("M%d", i), 2+rng.Intn(5), alpha)
		}
		pr, err := dfsm.ReachableCrossProduct(ms)
		if err != nil {
			t.Fatal(err)
		}
		if n := pr.Top.NumStates(); n >= lo && n <= hi {
			return pr.Top
		}
	}
}

// descentStart returns a closed level start with at most maxBlocks
// blocks, from a descent through merge closures: each level moves to the
// finest candidate that fits, or else to the coarsest one and goes on.
func descentStart(top *dfsm.Machine, maxBlocks int) P {
	m := Singletons(top.NumStates())
	for m.NumBlocks() > maxBlocks {
		var fit, coarsest P
		for _, c := range MergeClosuresOn(exec.Default(), top, m, nil, nil) {
			if c.NumBlocks() <= maxBlocks && (fit.N() == 0 || c.NumBlocks() > fit.NumBlocks()) {
				fit = c
			}
			if coarsest.N() == 0 || c.NumBlocks() < coarsest.NumBlocks() {
				coarsest = c
			}
		}
		if fit.N() > 0 {
			return fit
		}
		m = coarsest
	}
	return m
}

// notClosed moves random states of the closed p into other blocks until
// the result is no longer closed.
func notClosed(t *testing.T, rng *rand.Rand, top *dfsm.Machine, p P) P {
	t.Helper()
	for try := 0; try < 100; try++ {
		assign := p.Assignment()
		for k := 0; k < 2; k++ {
			assign[rng.Intn(len(assign))] = assign[rng.Intn(len(assign))]
		}
		if q := FromAssignment(assign); !IsClosed(top, q) {
			return q
		}
	}
	t.Fatalf("no perturbation of %s is open", p)
	return P{}
}

// randomPairs draws k state pairs of distinct states.
func randomPairs(rng *rand.Rand, n, k int) [][2]int {
	out := make([][2]int, 0, k)
	for len(out) < k {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// samePair returns two distinct states in one block of p, if any.
func samePair(p P) ([2]int, bool) {
	for _, blk := range p.Blocks() {
		if len(blk) > 1 {
			return [2]int{blk[0], blk[len(blk)-1]}, true
		}
	}
	return [2]int{}, false
}

func assertSameClosures(t *testing.T, label string, got, want []P) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d closures, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: closure %d is %s, reference %s", label, i, got[i], want[i])
		}
	}
}

// TestMergeClosuresMatchNaiveFixpoint checks the fan-out kernel — one
// level-start forest and one armed guard shared by every cascade — against
// per-pair reference closures, on product tops of 20–200 states, from
// closed level starts and from starts that are not closed, under no
// constraint, a forbidden list, a keep predicate, a forbidden pair already
// inside one block of the start, and a degenerate (s, s) pair.
func TestMergeClosuresMatchNaiveFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	pool := exec.New(2)
	defer pool.Close()
	for trial := 0; trial < 6; trial++ {
		top := productTop(t, rng, 20+trial*32, 40+trial*32)
		n := top.NumStates()

		// Closed: a descent's level start, and ⊤ on the smaller tops.
		// Not closed: that level start with a few states moved.
		closed := descentStart(top, 40)
		starts := []struct {
			name string
			p    P
		}{{"level start", closed}, {"not closed", notClosed(t, rng, top, closed)}}
		if n <= 60 {
			starts = append(starts, struct {
				name string
				p    P
			}{"top", Singletons(n)})
		}

		for _, start := range starts {
			p := start.p
			closures := pairClosures(top, p)
			forbidden := randomPairs(rng, n, 1+rng.Intn(4))
			keep := func(c P) bool { return c.NumBlocks()%3 != 0 }
			type constraintCase struct {
				name      string
				forbidden [][2]int
				keep      func(P) bool
				none      bool // the constraint rejects every closure
			}
			cases := []constraintCase{
				{"nil", nil, nil, false},
				{"forbidden", forbidden, nil, false},
				{"keep", nil, keep, false},
				{"forbidden+keep", forbidden, keep, false},
				{"degenerate", append([][2]int{{3, 3}}, forbidden...), nil, true},
			}
			if pair, ok := samePair(p); ok {
				cases = append(cases, constraintCase{"inside a block", append([][2]int{pair}, forbidden...), nil, true})
			}
			for _, c := range cases {
				label := fmt.Sprintf("trial %d (%d states), %s (%d blocks), %s", trial, n, start.name, p.NumBlocks(), c.name)
				want := refMergeClosures(closures, c.forbidden, c.keep)
				if c.none && len(want) != 0 {
					t.Fatalf("%s: reference kept %d closures", label, len(want))
				}
				assertSameClosures(t, label, MergeClosuresOn(pool, top, p, c.forbidden, c.keep), want)
			}
		}
	}
}

// TestFanOutStateDoesNotLeak interleaves, on a one-worker pool whose
// single scratch serves every cascade, fan-outs over two tops with
// different level starts and forbidden lists — guarded after unguarded
// and back, large top after small — with single-shot Close and
// CloseGuarded calls. Each result must match its reference: no base
// forest, guard or tag list of one call may reach the next.
func TestFanOutStateDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := exec.New(1)
	defer pool.Close()

	big := productTop(t, rng, 150, 200)
	small := productTop(t, rng, 20, 40)
	type fanOut struct {
		top       *dfsm.Machine
		p         P
		forbidden [][2]int
		want      []P
	}
	var fans []fanOut
	for _, top := range []*dfsm.Machine{big, small} {
		n := top.NumStates()
		p := descentStart(top, 30)
		closures := pairClosures(top, p)
		for _, forbidden := range [][][2]int{randomPairs(rng, n, 3), nil} {
			fans = append(fans, fanOut{top, p, forbidden, refMergeClosures(closures, forbidden, nil)})
		}
	}
	type single struct {
		top       *dfsm.Machine
		p         P
		forbidden [][2]int
		want      P
		wantOK    bool
	}
	var singles []single
	for _, top := range []*dfsm.Machine{small, big} {
		n := top.NumStates()
		p := notClosed(t, rng, top, descentStart(top, 30))
		want := naiveClose(top, p.Assignment())
		// One guard drawn at random, one of pairs the closure separates
		// (when it separates any), and no guard.
		forbidden := randomPairs(rng, n, 2)
		ok := true
		for _, e := range forbidden {
			ok = ok && want.Separates(e[0], e[1])
		}
		var apart [][2]int
		for _, e := range randomPairs(rng, n, 20) {
			if want.Separates(e[0], e[1]) {
				apart = append(apart, e)
			}
		}
		singles = append(singles, single{top, p, forbidden, want, ok}, single{top, p, apart, want, true}, single{top, p, nil, want, true})
	}

	for round := 0; round < 3; round++ {
		for i := range fans {
			f := fans[(i+round)%len(fans)]
			label := fmt.Sprintf("round %d, fan-out %d", round, (i+round)%len(fans))
			assertSameClosures(t, label, MergeClosuresOn(pool, f.top, f.p, f.forbidden, nil), f.want)

			s := singles[(i+round)%len(singles)]
			var got P
			ok := true
			if len(s.forbidden) == 0 {
				got = Close(s.top, s.p)
			} else {
				got, ok = CloseGuarded(s.top, s.p, s.forbidden)
			}
			if ok != s.wantOK || ok && !got.Equal(s.want) {
				t.Fatalf("%s, single %d: got %s (ok=%v), reference %s (ok=%v)",
					label, (i+round)%len(singles), got, ok, s.want, s.wantOK)
			}
		}
	}
}

// checkPass evaluates tasks at level start p through the pair-graph pass
// twice — guarded by forbidden, then filtered by a keep that demands every
// forbidden pair stay separated — on the shared table tab. Each task's
// verdict, and closure when it passes, must match unmemoized closePairs
// and the naive fixpoint, and onClose must see every task exactly once
// (none when p already merges a forbidden pair).
// It returns the pass's results, guarded first.
func checkPass(t *testing.T, label string, pool *exec.Pool, tab *sccTable, top *dfsm.Machine, p P, tasks []pairTask, forbidden [][2]int) [2][]pairResult {
	t.Helper()
	keep := func(c P) bool {
		for _, e := range forbidden {
			if !c.Separates(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	var out [2][]pairResult
	for k, con := range []constraint{{forbidden: forbidden}, {keep: keep}} {
		path := [2]string{"guarded", "keep"}[k]
		var mu sync.Mutex // an open p falls back to the pooled fan-out
		seen := map[int]int{}
		got := tab.closeLevel(pool, top, p, tasks, con, func(x, y int) {
			mu.Lock()
			seen[pairIndex(x, y)]++
			mu.Unlock()
		})
		want := len(tasks)
		if newLevelStart(top, p, con.forbidden).violated {
			want = 0 // every task fails before any closure runs
		}
		if len(seen) != want {
			t.Fatalf("%s, %s: onClose saw %d pairs, want %d", label, path, len(seen), want)
		}
		for i, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("%s, %s: onClose saw pair %d %d times", label, path, i, cnt)
			}
		}
		cold := closePairs(pool, top, p, tasks, con, nil)
		for i, task := range tasks {
			assign := p.Assignment()
			bx, by := assign[task.x], assign[task.y]
			for s, b := range assign {
				if b == by {
					assign[s] = bx
				}
			}
			want := naiveClose(top, assign)
			wantOK := keep(want)
			g, c := got[i], cold[i]
			if g.ok != wantOK || c.ok != wantOK {
				t.Fatalf("%s, %s, pair (%d,%d): pass ok=%v, closePairs ok=%v, reference ok=%v",
					label, path, task.x, task.y, g.ok, c.ok, wantOK)
			}
			if wantOK && (!g.cand.Equal(want) || !c.cand.Equal(want)) {
				t.Fatalf("%s, %s, pair (%d,%d): pass %s, closePairs %s, reference %s",
					label, path, task.x, task.y, g.cand, c.cand, want)
			}
		}
		out[k] = got
	}
	return out
}

// cascadesRun counts the results whose pair ran a cascade of its own.
func cascadesRun(res []pairResult) int {
	n := 0
	for _, r := range res {
		if r.out != cascadeImplied {
			n++
		}
	}
	return n
}

// TestPairGraphPassHardCases checks the per-level pair-graph pass against
// unmemoized closePairs and the naive fixpoint on the cases its shortcuts
// could get wrong, guarded and keep-filtered, on one reused table: a
// violation the SCC's own cascade must catch, a pair graph that is one
// SCC, a search 10⁵ nodes deep, and random product tops from closed and
// open level starts.
func TestPairGraphPassHardCases(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	var tab sccTable
	machine := func(n int, events []string, delta func(s, e int) int) *dfsm.Machine {
		names := make([]string, n)
		rows := make([][]int, n)
		for s := range rows {
			names[s] = fmt.Sprintf("s%d", s)
			rows[s] = make([]int, len(events))
			for e := range events {
				rows[s][e] = delta(s, e)
			}
		}
		m, err := dfsm.NewMachine("T", names, events, rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Transitive violation: (0,1) steps to (2,3) under x and to (3,4)
	// under y, and those two only loop. The forbidden pair (2,4) is not
	// reachable from (0,1), and both of its successors pass, so only
	// (0,1)'s own cascade can see 2 and 4 merged through 3. The constant
	// event j makes state 1 reachable and adds no pair-graph edge.
	trans := machine(5, []string{"x", "y", "j"}, func(s, e int) int {
		switch {
		case e == 2:
			return 1
		case s == 0:
			return []int{2, 3}[e]
		case s == 1:
			return []int{3, 4}[e]
		}
		return s
	})
	top := Singletons(5)
	res := checkPass(t, "transitive", pool, &tab, trans, top, blockPairs(top), [][2]int{{2, 4}})
	for k, r := range res {
		for i, task := range blockPairs(top) {
			switch {
			case task.x == 0 && task.y == 1 && (r[i].ok || r[i].out == cascadeImplied):
				t.Fatalf("transitive, path %d: (0,1) ok=%v outcome %d; want its own cascade to fail", k, r[i].ok, r[i].out)
			case (task.x == 2 && task.y == 3 || task.x == 3 && task.y == 4) && !r[i].ok:
				t.Fatalf("transitive, path %d: successor (%d,%d) failed", k, task.x, task.y)
			}
		}
	}

	// One giant SCC: a rotation and a transposition generate the full
	// symmetric group, which moves every unordered pair to every other.
	// The guarded pass fails the SCC on its forbidden member without a
	// cascade; the keep path runs exactly one.
	const g = 24
	giant := machine(g, []string{"rot", "swap"}, func(s, e int) int {
		switch {
		case e == 0:
			return (s + 1) % g
		case s < 2:
			return 1 - s
		}
		return s
	})
	top = Singletons(g)
	res = checkPass(t, "giant SCC", pool, &tab, giant, top, blockPairs(top), [][2]int{{0, 5}})
	if n := cascadesRun(res[0]); n != 0 {
		t.Fatalf("giant SCC, guarded: %d cascades ran, want 0", n)
	}
	if n := cascadesRun(res[1]); n != 1 {
		t.Fatalf("giant SCC, keep: %d cascades ran, want 1", n)
	}
	if len(tab.sccs) != 1 {
		t.Fatalf("giant SCC: %d SCCs, want 1", len(tab.sccs))
	}

	// A 10⁵-node chain: tracks x_0..x_{m-1} (states 0..m-1) and
	// y_0..y_{m-1} (states m..2m-1). dx steps x down (x_0 stays); wrap
	// sends x_0 to x_{m-1} and steps y down (y_0 stays). From (x_{m-1},
	// y_{m-1}) the search walks every mixed pair row by row, each its own
	// SCC down to row 0, before it meets a visited node. The constant
	// event j makes the y track reachable.
	const m = 317
	chain := machine(2*m, []string{"dx", "wrap", "j"}, func(s, e int) int {
		switch {
		case e == 2:
			return 2*m - 1
		case s < m && e == 0:
			return max(s-1, 0)
		case s == 0:
			return m - 1
		case s < m || e == 0:
			return s
		}
		return max(s-1, m)
	})
	top = Singletons(2 * m)
	tasks := []pairTask{{x: m - 1, y: 2*m - 1}}
	for _, forbidden := range [][][2]int{{{0, m}}, nil} {
		checkPass(t, fmt.Sprintf("chain, forbidden %v", forbidden), pool, &tab, chain, top, tasks, forbidden)
		if d := cap(tab.frames); d < m*m {
			t.Fatalf("chain: the search held at most %d frames, want %d", d, m*m)
		}
	}

	// Random product tops, from ⊤, a closed level start and an open one.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		top := productTop(t, rng, 20+trial*10, 40+trial*10)
		closed := descentStart(top, 30)
		for _, p := range []P{Singletons(top.NumStates()), closed, notClosed(t, rng, top, closed)} {
			label := fmt.Sprintf("trial %d, %d blocks", trial, p.NumBlocks())
			checkPass(t, label, pool, &tab, top, p, blockPairs(p), randomPairs(rng, top.NumStates(), 3))
		}
	}
}
