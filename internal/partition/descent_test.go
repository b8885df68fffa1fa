package partition

import (
	"math/rand"
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

		got := closePairs(pool, top, p, []pairTask{{seed: prev}}, constraint{}, nil, nil)[0].cand
		if !got.Equal(want) {
			t.Fatalf("trial %d: seeded close %s, Close(Join) %s (p=%s prev=%s)",
				trial, got, want, p, prev)
		}
	}
}

// TestSeededCloseGuardedMatchesGuarded: the guarded seeded close must
// agree with CloseGuarded of the join — same partition when it passes,
// same verdict when a forbidden pair collapses.
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
		want, wantOK := CloseGuarded(top, join, forbidden)

		r := closePairs(pool, top, p, []pairTask{{seed: prev}}, constraint{forbidden: forbidden}, nil, nil)[0]
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
// once through MinMergeClosureOn (guarded or keep-filtered) with a
// DescentState, once through the full MergeClosuresOn list with an
// explicit min — and demands the identical winner at every level of every
// descent.
func TestMinMergeClosureMatchesFullDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := exec.Default()
	for trial := 0; trial < 40; trial++ {
		top := dfsm.RandomMachine(rng, "T", 4+rng.Intn(14), []string{"a", "b"})
		n := top.NumStates()
		var forbidden [][2]int
		for i := 0; i < 1+rng.Intn(5); i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if x != y {
				forbidden = append(forbidden, [2]int{x, y})
			}
		}
		keep := func(p P) bool {
			for _, e := range forbidden {
				if !p.Separates(e[0], e[1]) {
					return false
				}
			}
			return true
		}

		for _, guarded := range []bool{false, true} {
			d := NewDescentState()
			m := Singletons(n)
			for m.NumBlocks() > 1 {
				var got P
				var gotOK bool
				if guarded {
					got, gotOK = MinMergeClosureOn(pool, d, top, m, forbidden, nil)
				} else {
					got, gotOK = MinMergeClosureOn(pool, d, top, m, nil, keep)
				}
				want, wantOK := minOverFull(MergeClosuresOn(pool, top, m, nil, keep))
				if gotOK != wantOK {
					t.Fatalf("trial %d guarded=%v at %d blocks: min ok=%v, full ok=%v",
						trial, guarded, m.NumBlocks(), gotOK, wantOK)
				}
				if !gotOK {
					break
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d guarded=%v at %d blocks: min %s, full %s",
						trial, guarded, m.NumBlocks(), got, want)
				}
				m = got
			}
		}
	}
}

// TestPairMemoMatchesUnmemoized is the pair-implication memo's
// equivalence property: random systems descended twice per configuration
// — once memoized (the default), once through DisablePairMemo — must
// produce bit-identical winners at every level, on the shared pool and
// on a serial one, guarded and unguarded. It also pins the counter
// contracts: the memoized run's cascade split accounts for every cold
// closure, and the unmemoized run reports every cascade cold.
func TestPairMemoMatchesUnmemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	serial := exec.New(1)
	defer serial.Close()
	pools := []*exec.Pool{exec.Default(), serial}
	for trial := 0; trial < 30; trial++ {
		top := dfsm.RandomMachine(rng, "T", 6+rng.Intn(14), []string{"a", "b"})
		n := top.NumStates()
		var forbidden [][2]int
		for i := 0; i < 1+rng.Intn(5); i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if x != y {
				forbidden = append(forbidden, [2]int{x, y})
			}
		}
		keep := func(p P) bool {
			for _, e := range forbidden {
				if !p.Separates(e[0], e[1]) {
					return false
				}
			}
			return true
		}

		for _, pool := range pools {
			for _, guarded := range []bool{false, true} {
				dm := NewDescentState()
				dc := NewDescentState()
				dc.DisablePairMemo()
				level := func(d *DescentState, m P) (P, bool) {
					if guarded {
						return MinMergeClosureOn(pool, d, top, m, forbidden, nil)
					}
					return MinMergeClosureOn(pool, d, top, m, nil, keep)
				}
				mM, mC := Singletons(n), Singletons(n)
				for {
					gotM, okM := level(dm, mM)
					gotC, okC := level(dc, mC)
					if okM != okC {
						t.Fatalf("trial %d guarded=%v workers=%d at %d blocks: memoized ok=%v, unmemoized ok=%v",
							trial, guarded, pool.Workers(), mM.NumBlocks(), okM, okC)
					}
					if !okM {
						break
					}
					if !gotM.Equal(gotC) {
						t.Fatalf("trial %d guarded=%v workers=%d at %d blocks: memoized %s, unmemoized %s",
							trial, guarded, pool.Workers(), mM.NumBlocks(), gotM, gotC)
					}
					mM, mC = gotM, gotC
				}

				sm, sc := dm.Stats(), dc.Stats()
				if sm.ImpliedCascades+sm.SeededCascades+sm.ColdCascades != sm.ColdClosures {
					t.Fatalf("trial %d guarded=%v workers=%d: memoized split %d+%d+%d != %d cold closures",
						trial, guarded, pool.Workers(),
						sm.ImpliedCascades, sm.SeededCascades, sm.ColdCascades, sm.ColdClosures)
				}
				if sc.ImpliedCascades != 0 || sc.SeededCascades != 0 || sc.ColdCascades != sc.ColdClosures {
					t.Fatalf("trial %d guarded=%v workers=%d: unmemoized stats claim sharing: %+v",
						trial, guarded, pool.Workers(), sc)
				}
			}
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
		closed := make(map[uint64]int) // pair key -> closures observed
		d.onClose = func(x, y int) {
			mu.Lock()
			closed[pairKey(x, y)]++
			mu.Unlock()
		}

		m := Singletons(n)
		level := 0
		for m.NumBlocks() > 1 {
			// Snapshot what was pruned before this level; none of those
			// pairs may reach the close function now or later.
			pruned := make(map[uint64]struct{}, len(d.pruned))
			for k := range d.pruned {
				pruned[k] = struct{}{}
			}
			mu.Lock()
			clear(closed)
			mu.Unlock()

			best, ok := MinMergeClosureOn(pool, d, top, m, forbidden, nil)
			if !ok {
				break
			}
			mu.Lock()
			for k, cnt := range closed {
				if _, dead := pruned[k]; dead {
					t.Fatalf("trial %d level %d: pruned pair %d re-closed %d times", trial, level, k, cnt)
				}
			}
			mu.Unlock()
			m = best
			level++
		}
		if level > 1 && d.Stats().PrunedSkips == 0 && len(d.pruned) > 0 {
			t.Fatalf("trial %d: %d pairs pruned over %d levels but no skip recorded",
				trial, len(d.pruned), level)
		}
	}
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
		best, ok := MinMergeClosureOn(pool, d, top, m, forbidden, nil)
		if !ok {
			break
		}
		m = best
	}
	if d.memo == nil || d.memo.empty() {
		t.Fatal("descent never engaged the pair memo; the reset check below would be vacuous")
	}
	d.Reset()
	if len(d.pruned) != 0 || len(d.survivors) != 0 || d.Stats() != (DescentStats{}) {
		t.Fatalf("Reset left descent outcomes behind: %d pruned, %d survivors, stats %+v",
			len(d.pruned), len(d.survivors), d.Stats())
	}
	// The per-level memo must be demonstrably gone: its entries are keyed
	// by the old level-start partition's block ids and hold its closures,
	// so a stale memo would leak partitions into the next descent.
	if !d.memo.empty() {
		t.Fatalf("Reset left the pair memo populated: %d blocks, %d entries",
			d.memo.blocks, len(d.memo.state))
	}

	// The second descent must still produce the cold-start result.
	m = Singletons(12)
	for m.NumBlocks() > 1 {
		best, ok := MinMergeClosureOn(pool, d, top, m, forbidden, nil)
		if !ok {
			break
		}
		m = best
	}
	mCold := Singletons(12)
	for mCold.NumBlocks() > 1 {
		best, ok := minOverFull(MergeClosuresOn(pool, top, mCold, forbidden, nil))
		if !ok {
			break
		}
		mCold = best
	}
	if !m.Equal(mCold) {
		t.Fatalf("post-Reset descent reached %s, cold descent %s", m, mCold)
	}
}
