package partition

import (
	"math/rand"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/exec"
)

// TestCloseGuardedMatchesClose: when no forbidden pair merges, the guarded
// closure equals the plain closure; when one does, it aborts.
func TestCloseGuardedMatchesClose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		top := dfsm.RandomMachine(rng, "T", 2+rng.Intn(8), []string{"a", "b"})
		n := top.NumStates()
		// Random starting partition: merge a random pair of singletons.
		p := Singletons(n)
		x, y := rng.Intn(n), rng.Intn(n)
		merged := p.MergeBlocks(p.BlockOf(x), p.BlockOf(y))
		want := Close(top, merged)

		// Random forbidden pairs.
		var forbidden [][2]int
		for k := 0; k < 1+rng.Intn(3); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				forbidden = append(forbidden, [2]int{a, b})
			}
		}
		wantOK := true
		for _, e := range forbidden {
			if !want.Separates(e[0], e[1]) {
				wantOK = false
			}
		}

		got, ok := CloseGuarded(top, merged, forbidden)
		if ok != wantOK {
			t.Fatalf("trial %d: guarded ok=%v, plain says %v", trial, ok, wantOK)
		}
		if ok && !got.Equal(want) {
			t.Fatalf("trial %d: guarded %v != plain %v", trial, got, want)
		}
	}
}

// TestMergeClosuresGuardedMatchesFiltered: the two candidate-evaluation
// paths of Algorithm 2 return the same candidate sets.
func TestMergeClosuresGuardedMatchesFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		top := dfsm.RandomMachine(rng, "T", 3+rng.Intn(8), []string{"a", "b"})
		n := top.NumStates()
		p := Singletons(n)
		var forbidden [][2]int
		for k := 0; k < rng.Intn(4); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				forbidden = append(forbidden, [2]int{a, b})
			}
		}
		keep := func(c P) bool {
			for _, e := range forbidden {
				if !c.Separates(e[0], e[1]) {
					return false
				}
			}
			return true
		}
		plain := MergeClosuresOn(exec.Default(), top, p, nil, keep)
		guarded := MergeClosuresOn(exec.Default(), top, p, forbidden, nil)
		if len(plain) != len(guarded) {
			t.Fatalf("trial %d: %d vs %d candidates", trial, len(plain), len(guarded))
		}
		keys := map[string]bool{}
		for _, c := range plain {
			keys[c.Key()] = true
		}
		for _, c := range guarded {
			if !keys[c.Key()] {
				t.Fatalf("trial %d: guarded produced extra candidate %v", trial, c)
			}
		}
	}
}

func TestCloseGuardedNoForbidden(t *testing.T) {
	top := fig2Top(t)
	p := Singletons(4).MergeBlocks(0, 3)
	got, ok := CloseGuarded(top, p, nil)
	if !ok {
		t.Fatal("no forbidden pairs but aborted")
	}
	if !got.Equal(Close(top, p)) {
		t.Fatal("mismatch with plain closure")
	}
}
