package partition

import (
	"fmt"
	"math/rand"
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

// refMergeClosures is the reference MergeClosures over p's pair
// closures: keep each that separates every forbidden pair, deduplicated
// in order.
func refMergeClosures(closures []P, forbidden [][2]int) []P {
	seen := map[string]bool{}
	var out []P
	for _, c := range closures {
		if separating(forbidden)(c) && !seen[c.Key()] {
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
		for _, c := range MergeClosures(top, m, nil) {
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

// TestMergeClosuresMatchNaiveFixpoint checks MergeClosures — level 0's
// pair-graph pass — against per-pair reference closures, on product tops
// of 20–200 states, from a descent's level start and from ⊤, under no
// constraint, a short and a dense forbidden list, a forbidden pair
// already inside one block of the start, and a degenerate (s, s) pair.
func TestMergeClosuresMatchNaiveFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 6; trial++ {
		top := productTop(t, rng, 20+trial*32, 40+trial*32)
		n := top.NumStates()

		// A descent's level start, and ⊤ on the smaller tops.
		starts := []struct {
			name string
			p    P
		}{{"level start", descentStart(top, 40)}}
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
			type constraintCase struct {
				name      string
				forbidden [][2]int
				none      bool // the constraint rejects every closure
			}
			cases := []constraintCase{
				{"nil", nil, false},
				{"forbidden", forbidden, false},
				{"dense", randomPairs(rng, n, 100+rng.Intn(201)), false},
				{"degenerate", append([][2]int{{3, 3}}, forbidden...), true},
			}
			if pair, ok := samePair(p); ok {
				cases = append(cases, constraintCase{"inside a block", append([][2]int{pair}, forbidden...), true})
			}
			for _, c := range cases {
				label := fmt.Sprintf("trial %d (%d states), %s (%d blocks), %s", trial, n, start.name, p.NumBlocks(), c.name)
				want := refMergeClosures(closures, c.forbidden)
				if c.none && len(want) != 0 {
					t.Fatalf("%s: reference kept %d closures", label, len(want))
				}
				assertSameClosures(t, label, MergeClosures(top, p, c.forbidden), want)
			}
		}
	}
}

// TestFanOutStateDoesNotLeak interleaves, on the default pool's recycled
// scratch, level-0 passes over two tops with different level starts and
// forbidden lists — constrained after unconstrained and back, large top
// after small — with single-shot Close calls on starts that are not
// closed. Each result must match its reference: no base forest or stack
// of one call may reach the next.
func TestFanOutStateDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))

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
			fans = append(fans, fanOut{top, p, forbidden, refMergeClosures(closures, forbidden)})
		}
	}
	type single struct {
		top  *dfsm.Machine
		p    P
		want P
	}
	var singles []single
	for _, top := range []*dfsm.Machine{small, big} {
		p := notClosed(t, rng, top, descentStart(top, 30))
		singles = append(singles, single{top, p, naiveClose(top, p.Assignment())})
	}

	for round := 0; round < 3; round++ {
		for i := range fans {
			f := fans[(i+round)%len(fans)]
			label := fmt.Sprintf("round %d, fan-out %d", round, (i+round)%len(fans))
			assertSameClosures(t, label, MergeClosures(f.top, f.p, f.forbidden), f.want)

			s := singles[(i+round)%len(singles)]
			if got := Close(s.top, s.p); !got.Equal(s.want) {
				t.Fatalf("%s, single %d: got %s, reference %s", label, (i+round)%len(singles), got, s.want)
			}
		}
	}
}

// checkPass evaluates level 0 at the closed start p under forbidden
// through d, reset first so one table and one pair of sets serve every
// case. The record's verdict for each task, and closure when it passes,
// must match unmemoized closePairs and the naive fixpoint (every block
// pair of p is checked when tasks is nil); onClose must see every block
// pair exactly once (none when p already merges a forbidden pair); and
// when every pair was checked the returned winner must be their least
// passing closure, and the pass must have emitted exactly the SCCs that
// emittedSCCs counts.
func checkPass(t *testing.T, label string, pool *exec.Pool, d *DescentState, top *dfsm.Machine, p P, tasks []pairTask, forbidden [][2]int) {
	t.Helper()
	seen := map[int]int{}
	d.Reset()
	d.onClose = func(x, y int) { seen[pairIndex(x, y)]++ }
	best, bestOK := MinMergeClosureOn(pool, d, top, p, forbidden)
	d.onClose = nil
	b := p.NumBlocks()
	want := b * (b - 1) / 2
	if newLevelStart(top, p, forbidden).violated {
		want = 0 // every task fails before any closure runs
	}
	if len(seen) != want {
		t.Fatalf("%s: onClose saw %d pairs, want %d", label, len(seen), want)
	}
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("%s: onClose saw pair %d %d times", label, i, cnt)
		}
	}
	all := tasks == nil
	if all {
		tasks = blockPairs(p)
	}
	var least P
	fails := make([]bool, want)
	cold := closePairs(pool, top, p, tasks, forbidden)
	for i, task := range tasks {
		assign := p.Assignment()
		bx, by := assign[task.x], assign[task.y]
		for s, b := range assign {
			if b == by {
				assign[s] = bx
			}
		}
		want := naiveClose(top, assign)
		wantOK := separating(forbidden)(want)
		g, gOK := recorded(d, task.x, task.y)
		c := cold[i]
		if gOK != wantOK || c.ok != wantOK {
			t.Fatalf("%s, pair (%d,%d): pass ok=%v, closePairs ok=%v, reference ok=%v",
				label, task.x, task.y, gOK, c.ok, wantOK)
		}
		if wantOK && (!g.Equal(want) || !c.cand.Equal(want)) {
			t.Fatalf("%s, pair (%d,%d): pass %s, closePairs %s, reference %s",
				label, task.x, task.y, g, c.cand, want)
		}
		if wantOK && (least.N() == 0 || want.Less(least)) {
			least = want
		}
		if all && len(fails) > 0 {
			fails[node(int32(p.BlockOf(task.x)), int32(p.BlockOf(task.y)))] = !wantOK
		}
	}
	if all && (bestOK != (least.N() > 0) || bestOK && !best.Equal(least)) {
		t.Fatalf("%s: winner %v %s, least passing closure %s", label, bestOK, best, least)
	}
	if all && len(fails) > 0 {
		if got, ref := len(d.table.sccs)-1, emittedSCCs(top, p, forbidden, fails); got != ref {
			t.Fatalf("%s: the pass emitted %d SCCs, reference %d", label, got, ref)
		}
	}
}

// emittedSCCs counts, by brute force over the pair graph of the closed
// start p, the SCCs the pass must judge with a cascade: those with no
// forbidden member whose successors outside the SCC all pass. fails holds
// each node's reference verdict. Every other SCC fails fast, without
// being emitted.
func emittedSCCs(top *dfsm.Machine, p P, forbidden [][2]int, fails []bool) int {
	b := int32(p.NumBlocks())
	reps := firstStates(p, nil)
	succ := make([][]int, len(fails))
	for j := int32(1); j < b; j++ {
		for i := int32(0); i < j; i++ {
			for e := 0; e < top.NumEvents(); e++ {
				x, y := int32(p.BlockOf(top.NextByIndex(reps[i], e))), int32(p.BlockOf(top.NextByIndex(reps[j], e)))
				if x != y {
					succ[node(i, j)] = append(succ[node(i, j)], node(min(x, y), max(x, y)))
				}
			}
		}
	}
	reach := make([][]bool, len(fails)) // reach[u][v]: v is reachable from u
	for u := range reach {
		reach[u] = make([]bool, len(fails))
		reach[u][u] = true
		for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
			for _, v := range succ[queue[0]] {
				if !reach[u][v] {
					reach[u][v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	forbiddenNode := make([]bool, len(fails))
	for _, e := range forbidden {
		if x, y := int32(p.BlockOf(e[0])), int32(p.BlockOf(e[1])); x != y {
			forbiddenNode[node(min(x, y), max(x, y))] = true
		}
	}
	count := 0
	for u := range fails {
		same := func(v int) bool { return reach[u][v] && reach[v][u] }
		emitted := true
		for v := range fails {
			if !same(v) {
				continue
			}
			if v < u {
				emitted = false // counted at the SCC's least node
				break
			}
			if forbiddenNode[v] {
				emitted = false
			}
			for _, w := range succ[v] {
				if !same(w) && fails[w] {
					emitted = false
				}
			}
		}
		if emitted {
			count++
		}
	}
	return count
}

// cascadesRun counts the pairs of d's descent that ran a cascade of their
// own.
func cascadesRun(d *DescentState) int {
	s := d.Stats()
	return s.SeededCascades + s.ColdCascades
}

// TestPairGraphPassHardCases checks the per-level pair-graph pass against
// unmemoized closePairs and the naive fixpoint on the cases its fail-fast
// search could get wrong, on one reused table: a violation the SCC's own
// cascade must catch, with and without a DFS parent that must then fail
// without a cascade, a passing SCC finished inside a search that later
// aborts, a start that already merges a forbidden pair, a pair graph that
// is one SCC, a search 10⁵ nodes deep, and random product tops from ⊤
// and a descent's level start under short and dense forbidden lists.
func TestPairGraphPassHardCases(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	d := NewDescentState()
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
	checkPass(t, "transitive", pool, d, trans, top, nil, [][2]int{{2, 4}})
	if _, ok := recorded(d, 0, 1); ok || d.table.forbidden[node(0, 1)] {
		t.Fatalf("transitive: (0,1) ok=%v forbidden=%v; want its own cascade to fail", ok, d.table.forbidden[node(0, 1)])
	}
	for _, e := range [][2]int{{2, 3}, {3, 4}} {
		if _, ok := recorded(d, e[0], e[1]); !ok {
			t.Fatalf("transitive: successor %v failed", e)
		}
	}

	// The same violation one DFS level down: (0,1) steps to (2,3) under z
	// only, and (2,3) to (4,5) under x and to (5,6) under y, which loop.
	// The forbidden pair (4,6) is merged only by (2,3)'s own cascade. The
	// search from (0,1) emits (2,3)'s SCC while (0,1) is still on the
	// frame stack, so the failed cascade must abort and fail (0,1) without
	// a cascade of its own: emittedSCCs leaves (0,1) out.
	parent := machine(7, []string{"x", "y", "z", "j"}, func(s, e int) int {
		switch {
		case e == 3:
			return 1
		case s < 2:
			return []int{0, 0, s + 2}[e]
		case s < 4:
			return []int{s + 2, s + 3, 2}[e]
		}
		return s
	})
	checkPass(t, "transitive under a parent", pool, d, parent, Singletons(7), nil, [][2]int{{4, 6}})
	for _, c := range []struct {
		pair [2]int
		ok   bool
	}{{[2]int{0, 1}, false}, {[2]int{2, 3}, false}, {[2]int{4, 5}, true}, {[2]int{5, 6}, true}} {
		if _, ok := recorded(d, c.pair[0], c.pair[1]); ok != c.ok {
			t.Fatalf("transitive under a parent: %v ok=%v, want %v", c.pair, ok, c.ok)
		}
	}

	// A passing SCC finished inside a search that later aborts: (0,1)
	// steps to the looping (2,3) under x, then to the forbidden (4,5) under
	// y. The search emits (2,3) as a passing SCC before it opens (4,5), and
	// the abort must fail (0,1) while (2,3) keeps its closure.
	kept := machine(6, []string{"x", "y", "j"}, func(s, e int) int {
		switch {
		case e == 2:
			return 1
		case s < 2:
			return s + 2 + 2*e
		}
		return s
	})
	checkPass(t, "passing SCC under an abort", pool, d, kept, Singletons(6), nil, [][2]int{{4, 5}})
	if _, ok := recorded(d, 0, 1); ok {
		t.Fatal("passing SCC under an abort: (0,1) passed")
	}
	if c, ok := recorded(d, 2, 3); !ok || !c.Equal(MustFromBlocks(6, [][]int{{0}, {1}, {2, 3}, {4}, {5}})) {
		t.Fatalf("passing SCC under an abort: (2,3) ok=%v closure %s", ok, c)
	}

	// A forbidden pair inside the last block of a closed start: close(p)
	// already merges it, so every task fails before any node is flagged.
	// Its node would be node(1, 1), one past the table's only node.
	swap := machine(3, []string{"s", "j"}, func(s, e int) int {
		if e == 1 {
			return 1
		}
		return []int{0, 2, 1}[s]
	})
	top = MustFromBlocks(3, [][]int{{0}, {1, 2}})
	checkPass(t, "inside the last block", pool, d, swap, top, nil, [][2]int{{1, 2}})
	if _, ok := recorded(d, 0, 1); ok {
		t.Fatal("inside the last block: a task passed although the start merges a forbidden pair")
	}

	// One giant SCC: a rotation and a transposition generate the full
	// symmetric group, which moves every unordered pair to every other.
	// Constrained, the search aborts at the forbidden member: it emits no
	// SCC, records every node failed and runs no cascade. Unconstrained,
	// it emits exactly one SCC and runs one cascade.
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
	for _, c := range []struct {
		forbidden [][2]int
		sccs      int // emitted, and so cascades run
	}{{[][2]int{{0, 5}}, 0}, {nil, 1}} {
		checkPass(t, "giant SCC", pool, d, giant, top, nil, c.forbidden)
		if n := cascadesRun(d); n != c.sccs {
			t.Fatalf("giant SCC, forbidden %v: %d cascades ran, want %d", c.forbidden, n, c.sccs)
		}
		if n := len(d.table.sccs) - 1; n != c.sccs {
			t.Fatalf("giant SCC, forbidden %v: %d SCCs emitted, want %d", c.forbidden, n, c.sccs)
		}
		failed := 0
		for _, k := range d.rec {
			if k < 0 {
				failed++
			}
		}
		if want := len(d.rec) * (1 - c.sccs); failed != want {
			t.Fatalf("giant SCC, forbidden %v: %d of %d nodes recorded failed, want %d", c.forbidden, failed, len(d.rec), want)
		}
	}

	// A 10⁵-node chain: tracks x_0..x_{m-1} and y_0..y_{m-1}. dx steps x
	// down (x_0 stays); wrap sends x_0 to x_{m-1} and steps y down (y_0
	// stays). From (x_{m-1}, y_{m-1}) the search walks every mixed pair
	// row by row, each its own SCC down to row 0, before it meets a
	// visited node. That pair is states 0 and 1, so the pass's first task
	// searches from it; x_k (k < m-1) is state k+2 and y_k is state
	// m+k+1. The constant event j makes the y track reachable.
	const m = 317
	state := func(k int) int { // k in the x_0..x_{m-1}, y_0..y_{m-1} numbering
		switch {
		case k == m-1:
			return 0
		case k == 2*m-1:
			return 1
		case k < m:
			return k + 2
		}
		return k + 1
	}
	track := make([]int, 2*m) // state -> k
	for k := range track {
		track[state(k)] = k
	}
	chain := machine(2*m, []string{"dx", "wrap", "j"}, func(s, e int) int {
		switch k := track[s]; {
		case e == 2:
			return state(2*m - 1)
		case k < m && e == 0:
			return state(max(k-1, 0))
		case k == 0:
			return state(m - 1)
		case k < m || e == 0:
			return s
		default:
			return state(max(k-1, m))
		}
	})
	top = Singletons(2 * m)
	tasks := []pairTask{{x: 0, y: 1}}
	for _, forbidden := range [][][2]int{{{state(0), state(m)}}, nil} {
		checkPass(t, fmt.Sprintf("chain, forbidden %v", forbidden), pool, d, chain, top, tasks, forbidden)
		if depth := cap(d.table.frames); depth < m*m {
			t.Fatalf("chain: the search held at most %d frames, want %d", depth, m*m)
		}
	}

	// Random product tops, from ⊤ and a descent's level start.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		top := productTop(t, rng, 20+trial*10, 40+trial*10)
		for _, p := range []P{Singletons(top.NumStates()), descentStart(top, 30)} {
			for _, k := range []int{3, 100 + rng.Intn(201)} {
				label := fmt.Sprintf("trial %d, %d blocks, %d pairs", trial, p.NumBlocks(), k)
				checkPass(t, label, pool, d, top, p, nil, randomPairs(rng, top.NumStates(), k))
			}
		}
	}
}

// TestLevelZeroNotClosedPanics: level 0 runs the pair-graph pass over the
// quotient machine of its start, which a partition that is not closed
// does not have, so both entry points that run a level 0 panic on one.
func TestLevelZeroNotClosedPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	top := productTop(t, rng, 20, 40)
	p := notClosed(t, rng, top, descentStart(top, 30))
	for name, run := range map[string]func(){
		"MinMergeClosureOn": func() { MinMergeClosureOn(exec.Default(), NewDescentState(), top, p, nil) },
		"MergeClosures":     func() { MergeClosures(top, p, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at a start that is not closed did not panic", name)
				}
			}()
			run()
		}()
	}
}
