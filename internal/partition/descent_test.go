package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/exec"
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

		got := closePairs(pool, top, p, []pairTask{{seed: prev}}, nil, nil)[0].cand
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

		r := closePairs(pool, top, p, []pairTask{{seed: prev}}, forbidden, nil)[0]
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

// minOverFull is the pre-fold reference: pickCandidate over the full
// MergeClosuresOn candidate list.
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
// unconstrained MergeClosuresOn list filtered by the forbidden pairs with
// an explicit min — and demands the identical winner at every level of
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
			want, wantOK := minOverFull(refMergeClosures(MergeClosuresOn(pool, top, m, nil), forbidden))
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

// TestPairMemoMatchesUnmemoized is the pair-graph pass's equivalence
// property: random systems descended twice per pool — once with the pass
// (the default), once through DisablePairMemo — must produce
// bit-identical winners at every level, on a serial pool and a
// four-worker one. It also pins the counter contracts: the pass's
// cascade split accounts for every cold closure and is identical at both
// pool sizes, and the unshared run reports every cascade cold.
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
			dc := NewDescentState()
			dc.DisablePairMemo()
			mM, mC := Singletons(n), Singletons(n)
			for {
				gotM, okM := MinMergeClosureOn(pool, dm, top, mM, forbidden)
				gotC, okC := MinMergeClosureOn(pool, dc, top, mC, forbidden)
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

			sm, sc := dm.Stats(), dc.Stats()
			if sm.ImpliedCascades+sm.SeededCascades+sm.ColdCascades != sm.ColdClosures {
				t.Fatalf("trial %d workers=%d: memoized split %d+%d+%d != %d cold closures",
					trial, pool.Workers(),
					sm.ImpliedCascades, sm.SeededCascades, sm.ColdCascades, sm.ColdClosures)
			}
			if sc.ImpliedCascades != 0 || sc.SeededCascades != 0 || sc.ColdCascades != sc.ColdClosures {
				t.Fatalf("trial %d workers=%d: unmemoized stats claim sharing: %+v",
					trial, pool.Workers(), sc)
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
		var mu sync.Mutex
		closed := make(map[int]int) // pair index -> closures observed
		d.onClose = func(x, y int) {
			mu.Lock()
			closed[pairIndex(x, y)]++
			mu.Unlock()
		}

		m := Singletons(n)
		level := 0
		for m.NumBlocks() > 1 {
			// Snapshot what was pruned before this level; none of those
			// pairs may reach the close function now or later.
			pruned := slices.Clone(d.pruned)
			mu.Lock()
			clear(closed)
			mu.Unlock()

			best, ok := MinMergeClosureOn(pool, d, top, m, forbidden)
			if !ok {
				break
			}
			mu.Lock()
			for k, cnt := range closed {
				if pruned.has(k) {
					t.Fatalf("trial %d level %d: pruned pair %d re-closed %d times", trial, level, k, cnt)
				}
			}
			mu.Unlock()
			m = best
			level++
		}
		if n := setBits(d.pruned); level > 1 && d.Stats().PrunedSkips == 0 && n > 0 {
			t.Fatalf("trial %d: %d pairs pruned over %d levels but no skip recorded",
				trial, n, level)
		}
	}
}

// setBits counts the pairs a bitset holds.
func setBits(b pairBits) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestDescentStateReset: a reset state records nothing from the previous
// descent.
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
	if len(d.table.parts) == 0 || setBits(d.pruned) == 0 {
		t.Fatal("descent never engaged the pair-graph pass or pruned a pair; the reset check below would be vacuous")
	}
	d.Reset()
	if setBits(d.pruned) != 0 || len(d.survivors) != 0 || d.Stats() != (DescentStats{}) {
		t.Fatalf("Reset left descent outcomes behind: %d pruned, %d survivors, stats %+v",
			setBits(d.pruned), len(d.survivors), d.Stats())
	}
	// The pass's closures must be demonstrably gone, also past the
	// table's length: a stale reference would keep one descent's
	// partitions alive into the next.
	for i, m := range d.table.parts[:cap(d.table.parts)] {
		if m.N() != 0 {
			t.Fatalf("Reset left closure %d of the pair-graph pass referenced: %s", i, m)
		}
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
		best, ok := minOverFull(MergeClosuresOn(pool, top, mCold, forbidden))
		if !ok {
			break
		}
		mCold = best
	}
	if !m.Equal(mCold) {
		t.Fatalf("post-Reset descent reached %s, cold descent %s", m, mCold)
	}
}
