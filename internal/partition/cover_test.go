package partition

import (
	"math/rand"
	"testing"

	"repro/internal/dfsm"
)

func TestLowerCoverOfFig2Top(t *testing.T) {
	top := fig2Top(t)
	cover := LowerCover(top, Singletons(4))
	if len(cover) == 0 {
		t.Fatal("top of a 4-state machine has an empty lower cover")
	}
	keys := map[string]bool{}
	for _, c := range cover {
		if !IsClosed(top, c) {
			t.Errorf("cover element %v not closed", c)
		}
		if !c.StrictlyRefinedBy(Singletons(4)) {
			t.Errorf("cover element %v not strictly below top", c)
		}
		if keys[c.Key()] {
			t.Errorf("duplicate cover element %v", c)
		}
		keys[c.Key()] = true
	}
	// Machine A's partition {0,3},{1},{2} arises from merging t0,t3 with no
	// forced closure, so it must be in the cover (nothing closed lies
	// strictly between it and top).
	a := MustFromBlocks(4, [][]int{{0, 3}, {1}, {2}})
	if !keys[a.Key()] {
		t.Errorf("machine A's partition missing from top's lower cover: %v", cover)
	}
}

// TestLowerCoverMaximality: no cover element is strictly below another, and
// every closed partition strictly below p is below some cover element.
func TestLowerCoverMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		top := dfsm.RandomMachine(rng, "T", 2+rng.Intn(7), []string{"a", "b"})
		n := top.NumStates()
		p := Singletons(n)
		cover := LowerCover(top, p)
		for i, c := range cover {
			for j, d := range cover {
				if i != j && c.StrictlyRefinedBy(d) {
					t.Fatalf("trial %d: cover element %v strictly below %v", trial, c, d)
				}
			}
		}
		// Completeness on small tops: every closed partition < p must be
		// ≤ some cover element.
		if n <= 6 {
			for _, q := range allPartitions(n) {
				if !IsClosed(top, q) || !q.StrictlyRefinedBy(p) {
					continue
				}
				found := false
				for _, c := range cover {
					if q.RefinedBy(c) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: closed %v below top but under no cover element", trial, q)
				}
			}
		}
	}
}

func TestLowerCoverOfBottom(t *testing.T) {
	top := fig2Top(t)
	if cover := LowerCover(top, Single(4)); len(cover) != 0 {
		t.Fatalf("bottom has lower cover %v", cover)
	}
}

// TestMergeClosuresKeepPrunes: candidates that merge a forbidden pair
// never reach the candidate list.
func TestMergeClosuresKeepPrunes(t *testing.T) {
	top := fig2Top(t)
	// Keep only partitions separating t1 and t2.
	cands := MergeClosures(top, Singletons(4), [][2]int{{1, 2}})
	if len(cands) == 0 {
		t.Fatal("no candidate separates t1 and t2; the check below would be vacuous")
	}
	for _, c := range cands {
		if !c.Separates(1, 2) {
			t.Errorf("filtered candidates contain %v which merges t1,t2", c)
		}
	}
	// A degenerate pair, which no partition separates, rejects everything.
	none := MergeClosures(top, Singletons(4), [][2]int{{1, 2}, {0, 0}})
	if len(none) != 0 {
		t.Errorf("filter-all-out returned %v", none)
	}
}

// TestLowerCoverDescendsToBottom: repeatedly taking any cover element must
// terminate at the single-block partition (the lattice is finite and every
// step strictly coarsens).
func TestLowerCoverDescendsToBottom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	top := dfsm.RandomMachine(rng, "T", 8, []string{"a", "b"})
	n := top.NumStates()
	p := Singletons(n)
	for steps := 0; ; steps++ {
		if steps > n {
			t.Fatal("descent did not terminate")
		}
		cover := LowerCover(top, p)
		if len(cover) == 0 {
			break
		}
		p = cover[rng.Intn(len(cover))]
	}
	if p.NumBlocks() != 1 {
		t.Fatalf("descent stopped at %v, not bottom", p)
	}
}

// restrictedGrowth calls visit with every set partition of n states, as a
// restricted-growth string: a[0] = 0 and each a[i] is at most one more
// than the largest of a[0..i-1]. There are Bell(n) of them.
func restrictedGrowth(n int, visit func([]int)) {
	a := make([]int, n)
	var rec func(i, hi int)
	rec = func(i, hi int) {
		if i == n {
			visit(a)
			return
		}
		for b := 0; b <= hi+1; b++ {
			a[i] = b
			rec(i+1, max(hi, b))
		}
	}
	rec(1, 0)
}

// TestClosedPartitionsComplete checks the lattice enumerator against
// brute force on tops of at most 8 states (Fig. 2's top, seeded random
// machines, and reachable products of two, whose lattices are richer):
// ClosedPartitions must return, once each, exactly the set partitions for
// which IsClosed holds.
func TestClosedPartitionsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tops := []*dfsm.Machine{fig2Top(t)}
	for len(tops) < 7 {
		events := [][]string{{"a"}, {"a", "b"}}[len(tops)%2]
		tops = append(tops, dfsm.RandomMachine(rng, "T", 6+rng.Intn(3), events))
	}
	for len(tops) < 13 {
		ms := []*dfsm.Machine{
			dfsm.RandomMachine(rng, "M0", 2+rng.Intn(3), []string{"a", "b"}),
			dfsm.RandomMachine(rng, "M1", 2+rng.Intn(3), []string{"a", "c"}),
		}
		pr, err := dfsm.ReachableCrossProduct(ms)
		if err != nil {
			t.Fatal(err)
		}
		if n := pr.Top.NumStates(); n >= 5 && n <= 8 {
			tops = append(tops, pr.Top)
		}
	}
	for i, top := range tops {
		n := top.NumStates()
		want := NewSet(64)
		restrictedGrowth(n, func(a []int) {
			if p := FromAssignment(append([]int(nil), a...)); IsClosed(top, p) {
				want.Add(p)
			}
		})
		got, err := ClosedPartitions(top, 0)
		if err != nil {
			t.Fatalf("top %d (%d states): %v", i, n, err)
		}
		have := NewSet(len(got))
		for _, p := range got {
			if !have.Add(p) {
				t.Fatalf("top %d (%d states): %s enumerated twice", i, n, p)
			}
			if !want.Contains(p) {
				t.Fatalf("top %d (%d states): %s enumerated but not closed", i, n, p)
			}
		}
		if have.Len() != want.Len() {
			t.Fatalf("top %d (%d states): %d closed partitions enumerated, brute force finds %d", i, n, have.Len(), want.Len())
		}
	}
}
