package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/exec"
	"repro/internal/machines"
)

// randomClosed returns a random closed partition of top: the closure of a
// few random pair merges starting from ⊤.
func randomClosed(rng *rand.Rand, top *dfsm.Machine, merges int) P {
	p := Singletons(top.NumStates())
	for i := 0; i < merges; i++ {
		x := rng.Intn(top.NumStates())
		y := rng.Intn(top.NumStates())
		if x == y {
			continue
		}
		p = CloseMergingStates(top, p, x, y)
	}
	return p
}

// TestSeededCloseMatchesJoinClosure: the cascade of a closed partition
// seeded with another must equal Close of their lattice join — the
// identity the incremental descent's survivor seeding rests on.
func TestSeededCloseMatchesJoinClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := exec.Default()
	for trial := 0; trial < 200; trial++ {
		top := dfsm.RandomMachine(rng, "T", 4+rng.Intn(12), []string{"a", "b"})
		p := randomClosed(rng, top, 1+rng.Intn(3))
		prev := randomClosed(rng, top, 1+rng.Intn(3))

		join, err := Join(p, prev)
		if err != nil {
			t.Fatal(err)
		}
		want := Close(top, join)

		got := closePairs(pool, top, p, []pairTask{{seed: prev}}, nil)[0].cand
		if !got.Equal(want) {
			t.Fatalf("trial %d: seeded close %s, Close(Join) %s (p=%s prev=%s)",
				trial, got, want, p, prev)
		}
	}
}

// TestSeededCloseGuardedMatchesGuarded: the seeded close under a
// forbidden list must agree with Close of the join checked against that
// list — same partition when it passes, same verdict when a forbidden
// pair collapses.
func TestSeededCloseGuardedMatchesGuarded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := exec.Default()
	for trial := 0; trial < 200; trial++ {
		top := dfsm.RandomMachine(rng, "T", 4+rng.Intn(12), []string{"a", "b"})
		p := randomClosed(rng, top, 1+rng.Intn(3))
		prev := randomClosed(rng, top, 1+rng.Intn(3))
		var forbidden [][2]int
		for i := 0; i < 1+rng.Intn(4); i++ {
			forbidden = append(forbidden, [2]int{rng.Intn(top.NumStates()), rng.Intn(top.NumStates())})
		}

		join, err := Join(p, prev)
		if err != nil {
			t.Fatal(err)
		}
		want := Close(top, join)
		wantOK := separating(forbidden)(want)

		r := closePairs(pool, top, p, []pairTask{{seed: prev}}, forbidden)[0]
		got, gotOK := r.cand, r.ok
		if gotOK != wantOK {
			t.Fatalf("trial %d: seeded verdict %v, reference %v (p=%s prev=%s forbidden=%v)",
				trial, gotOK, wantOK, p, prev, forbidden)
		}
		if gotOK && !got.Equal(want) {
			t.Fatalf("trial %d: seeded close %s, reference %s", trial, got, want)
		}
	}
}

// minOverFull is the pre-fold reference: pickCandidate over a full
// merge-closure candidate list.
func minOverFull(cands []P) (P, bool) {
	if len(cands) == 0 {
		return P{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Less(best) {
			best = c
		}
	}
	return best, true
}

// TestMinMergeClosureMatchesFullDescent descends random machines twice —
// once through MinMergeClosureOn with a DescentState, once through the
// unconstrained per-pair list (coldMergeClosures) filtered by the
// forbidden pairs with an explicit min — and demands the identical winner at every level of
// every descent. Sparse trials draw up to five pairs on small random
// machines; dense ones draw 100–300 on 24–40-state product tops, the
// regime of Algorithm 2's weakest-edge lists.
func TestMinMergeClosureMatchesFullDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := exec.Default()
	descend := func(label string, top *dfsm.Machine, forbidden [][2]int) (levels int) {
		d := NewDescentState()
		m := Singletons(top.NumStates())
		for m.NumBlocks() > 1 {
			got, gotOK := MinMergeClosureOn(pool, d, top, m, forbidden)
			want, wantOK := minOverFull(refMergeClosures(coldMergeClosures(pool, top, m, nil), forbidden))
			if gotOK != wantOK {
				t.Fatalf("%s at %d blocks: min ok=%v, full ok=%v", label, m.NumBlocks(), gotOK, wantOK)
			}
			if !gotOK {
				break
			}
			if !got.Equal(want) {
				t.Fatalf("%s at %d blocks: min %s, full %s", label, m.NumBlocks(), got, want)
			}
			m = got
			levels++
		}
		return levels
	}
	for trial := 0; trial < 40; trial++ {
		top := dfsm.RandomMachine(rng, "T", 4+rng.Intn(14), []string{"a", "b"})
		descend(fmt.Sprintf("sparse trial %d", trial), top, randomPairs(rng, top.NumStates(), 1+rng.Intn(5)))
	}
	// Dense lists are drawn among the pairs a coarse closed partition q
	// separates, as weakest edges are among those some machine separates:
	// q's merge-closure ancestors pass, so every descent leaves ⊤.
	for trial := 0; trial < 6; trial++ {
		top := productTop(t, rng, 24, 40)
		q := descentStart(top, 4+rng.Intn(8))
		if q.NumBlocks() < 2 {
			trial--
			continue
		}
		forbidden := make([][2]int, 0, 300)
		for k := 100 + rng.Intn(201); len(forbidden) < k; {
			if e := randomPairs(rng, top.NumStates(), 1)[0]; q.Separates(e[0], e[1]) {
				forbidden = append(forbidden, e)
			}
		}
		label := fmt.Sprintf("dense trial %d (%d states, %d pairs)", trial, top.NumStates(), len(forbidden))
		if descend(label, top, forbidden) == 0 {
			t.Fatalf("%s: the descent never left ⊤", label)
		}
	}
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

// coldMergeClosures is the test-only per-pair reference for
// MergeClosures, with no pair-graph pass: every block pair of p closed by
// its own cascade on the pool (closePairs over blockPairs), the passing
// closures deduplicated in block-pair order.
func coldMergeClosures(pool *exec.Pool, top *dfsm.Machine, p P, forbidden [][2]int) []P {
	seen := NewSet(0)
	var out []P
	for _, r := range closePairs(pool, top, p, blockPairs(p), forbidden) {
		if r.ok && seen.Add(r.cand) {
			out = append(out, r.cand)
		}
	}
	return out
}

// coldMin is the test-only cold descent level: the Less-minimal closure
// of coldMergeClosures.
func coldMin(pool *exec.Pool, top *dfsm.Machine, p P, forbidden [][2]int) (P, bool) {
	return minOverFull(coldMergeClosures(pool, top, p, forbidden))
}

// pairIndex triangular-indexes the unordered pair of distinct states
// {x, y}; the index does not depend on the number of states.
func pairIndex(x, y int) int {
	if x > y {
		x, y = y, x
	}
	return y*(y-1)/2 + x
}

// recorded returns the outcome d's record holds for the states x and y
// of distinct blocks of d's last level start: the pair's closure, and
// whether it passed.
func recorded(d *DescentState, x, y int) (P, bool) {
	i, j := int32(d.start.BlockOf(x)), int32(d.start.BlockOf(y))
	if i > j {
		i, j = j, i
	}
	if k := d.rec[node(i, j)]; k >= 0 {
		return d.closures.items[k], true
	}
	return P{}, false
}

// prunedPairs returns the pairIndex of every representative pair that d's
// record marks failed.
func prunedPairs(d *DescentState) map[int]bool {
	out := map[int]bool{}
	if d.start.N() == 0 {
		return out
	}
	reps := firstStates(d.start, nil)
	for j := 1; j < len(reps); j++ {
		for i := 0; i < j; i++ {
			if _, ok := recorded(d, reps[i], reps[j]); !ok {
				out[pairIndex(reps[i], reps[j])] = true
			}
		}
	}
	return out
}

// TestPairMemoMatchesUnmemoized is the pair-graph pass's equivalence
// property: random systems descended twice per pool — once through
// MinMergeClosureOn, whose level 0 is the pass, once through the
// test-only cold descent (coldMin), where every pair runs its own
// cascade — must produce bit-identical winners at every level, on a
// serial pool and a four-worker one. It also pins the counter contracts:
// the pass's cascade split accounts for every cold closure and is
// identical at both pool sizes.
func TestPairMemoMatchesUnmemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	serial, four := exec.New(1), exec.New(4)
	defer serial.Close()
	defer four.Close()
	for trial := 0; trial < 30; trial++ {
		top := dfsm.RandomMachine(rng, "T", 6+rng.Intn(14), []string{"a", "b"})
		n := top.NumStates()
		forbidden := randomPairs(rng, n, 1+rng.Intn(5))

		var splits []DescentStats // one per pool
		for _, pool := range []*exec.Pool{serial, four} {
			dm := NewDescentState()
			mM, mC := Singletons(n), Singletons(n)
			for {
				gotM, okM := MinMergeClosureOn(pool, dm, top, mM, forbidden)
				gotC, okC := coldMin(pool, top, mC, forbidden)
				if okM != okC {
					t.Fatalf("trial %d workers=%d at %d blocks: memoized ok=%v, unmemoized ok=%v",
						trial, pool.Workers(), mM.NumBlocks(), okM, okC)
				}
				if !okM {
					break
				}
				if !gotM.Equal(gotC) {
					t.Fatalf("trial %d workers=%d at %d blocks: memoized %s, unmemoized %s",
						trial, pool.Workers(), mM.NumBlocks(), gotM, gotC)
				}
				mM, mC = gotM, gotC
			}

			sm := dm.Stats()
			if sm.ImpliedCascades+sm.SeededCascades+sm.ColdCascades != sm.ColdClosures {
				t.Fatalf("trial %d workers=%d: memoized split %d+%d+%d != %d cold closures",
					trial, pool.Workers(),
					sm.ImpliedCascades, sm.SeededCascades, sm.ColdCascades, sm.ColdClosures)
			}
			splits = append(splits, sm)
		}
		if splits[0] != splits[1] {
			t.Fatalf("trial %d: stats differ by pool size: 1 worker %+v, 4 workers %+v",
				trial, splits[0], splits[1])
		}
	}
}

// TestPrunedPairNeverReclosed hooks the close observer and checks the
// pruning contract: once a pair's closure violates the constraint, no
// deeper level of the descent evaluates that pair again — and the skips
// actually happen (the stats show pruned work).
func TestPrunedPairNeverReclosed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pool := exec.Default()
	for trial := 0; trial < 30; trial++ {
		top := dfsm.RandomMachine(rng, "T", 8+rng.Intn(12), []string{"a", "b"})
		n := top.NumStates()
		var forbidden [][2]int
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if x != y {
				forbidden = append(forbidden, [2]int{x, y})
			}
		}

		d := NewDescentState()
		closed := make(map[int]int) // pair index -> closures observed
		d.onClose = func(x, y int) { closed[pairIndex(x, y)]++ }

		m := Singletons(n)
		level := 0
		everPruned := 0
		for m.NumBlocks() > 1 {
			// Snapshot what was pruned before this level; none of those
			// pairs may reach the close function now or later.
			pruned := prunedPairs(d)
			everPruned += len(pruned)
			clear(closed)

			best, ok := MinMergeClosureOn(pool, d, top, m, forbidden)
			if !ok {
				break
			}
			for k, cnt := range closed {
				if pruned[k] {
					t.Fatalf("trial %d level %d: pruned pair %d re-closed %d times", trial, level, k, cnt)
				}
			}
			m = best
			level++
		}
		if level > 1 && d.Stats().PrunedSkips == 0 && everPruned > 0 {
			t.Fatalf("trial %d: %d pairs pruned over %d levels but no skip recorded",
				trial, everPruned, level)
		}
	}
}

// TestDescentStateReset: a reset state records nothing from the previous
// descent and holds no partition of it.
func TestDescentStateReset(t *testing.T) {
	top := dfsm.RandomMachine(rand.New(rand.NewSource(5)), "T", 12, []string{"a", "b"})
	pool := exec.Default()
	forbidden := [][2]int{{0, 1}, {2, 3}}

	d := NewDescentState()
	m := Singletons(12)
	for m.NumBlocks() > 1 {
		best, ok := MinMergeClosureOn(pool, d, top, m, forbidden)
		if !ok {
			break
		}
		m = best
	}
	if s := d.Stats(); s.ImpliedCascades == 0 || s.PrunedSkips == 0 && len(prunedPairs(d)) == 0 {
		t.Fatalf("descent never engaged the pair-graph pass or pruned a pair (%+v); the reset check below would be vacuous", s)
	}
	if cap(d.closures.items) == 0 && cap(d.next.items) == 0 {
		t.Fatal("descent interned no closure; the reset check below would be vacuous")
	}
	d.Reset()
	if d.start.N() != 0 || len(d.rec) != 0 || d.closures.Len() != 0 || d.next.Len() != 0 || d.Stats() != (DescentStats{}) {
		t.Fatalf("Reset left descent outcomes behind: start %v, %d recorded pairs, %d+%d closures, stats %+v",
			d.start, len(d.rec), d.closures.Len(), d.next.Len(), d.Stats())
	}
	// The closures must be demonstrably gone, also past the sets' lengths,
	// and the pass must hold no view of a level start: a stale reference
	// would keep one descent's partitions alive into the next.
	for _, s := range []*Set{&d.closures, &d.next} {
		for i, m := range s.items[:cap(s.items)] {
			if m.N() != 0 {
				t.Fatalf("Reset left closure %d referenced: %s", i, m)
			}
		}
	}
	if d.table.blockOf != nil || d.table.closures != nil {
		t.Fatal("Reset left the pair-graph pass holding a level start or a closure set")
	}

	// The second descent must still produce the cold-start result.
	m = Singletons(12)
	for m.NumBlocks() > 1 {
		best, ok := MinMergeClosureOn(pool, d, top, m, forbidden)
		if !ok {
			break
		}
		m = best
	}
	mCold := Singletons(12)
	for mCold.NumBlocks() > 1 {
		best, ok := coldMin(pool, top, mCold, forbidden)
		if !ok {
			break
		}
		mCold = best
	}
	if !m.Equal(mCold) {
		t.Fatalf("post-Reset descent reached %s, cold descent %s", m, mCold)
	}
}

// TestSeededJoinsMatchClosePairs: on the 64-state top of three mod-4
// sensor counters, where many pairs of a level share one seed, the
// per-seed joins of every seeded level must give each live pair the
// verdict and closure that closePairs gives it as its own task (its
// representative states, seeded with its closure at the previous level).
// The forbidden pairs are the weakest fault-graph edges: state pairs that
// differ in one counter only.
func TestSeededJoinsMatchClosePairs(t *testing.T) {
	pr, err := dfsm.ReachableCrossProduct(machines.SensorCounters(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	top, n := pr.Top, pr.Top.NumStates()
	var forbidden [][2]int
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			differ := 0
			for c := range pr.Components {
				if pr.Proj[x][c] != pr.Proj[y][c] {
					differ++
				}
			}
			if differ == 1 {
				forbidden = append(forbidden, [2]int{x, y})
			}
		}
	}
	pool := exec.New(2)
	defer pool.Close()
	d := NewDescentState()
	m := Singletons(n)
	shared := 0
	for level := 0; m.NumBlocks() > 1; level++ {
		// Each live pair of m as its own task, seeded from d's record of
		// the previous level.
		var tasks []pairTask
		seeds := NewSet(16)
		if level > 0 {
			reps := firstStates(m, nil)
			for i := range reps {
				for j := i + 1; j < len(reps); j++ {
					if seed, ok := recorded(d, reps[i], reps[j]); ok {
						tasks = append(tasks, pairTask{x: reps[i], y: reps[j], seed: seed})
						seeds.Add(seed)
					}
				}
			}
		}
		best, ok := MinMergeClosureOn(pool, d, top, m, forbidden)
		for k, r := range closePairs(pool, top, m, tasks, forbidden) {
			task := tasks[k]
			got, gotOK := recorded(d, task.x, task.y)
			if gotOK != r.ok || gotOK && !got.Equal(r.cand) {
				t.Fatalf("level %d, pair (%d,%d): per-seed join %v %s, closePairs %v %s",
					level, task.x, task.y, gotOK, got, r.ok, r.cand)
			}
		}
		if len(tasks) >= 4*seeds.Len() && seeds.Len() > 0 {
			shared++
		}
		if !ok {
			break
		}
		m = best
	}
	if shared == 0 {
		t.Fatal("no level had pairs sharing a seed; the per-seed joins went unchecked")
	}
}
