package partition

import (
	"math/rand"
	"testing"

	"repro/internal/dfsm"
)

// serialMergeClosures is the reference implementation of MergeClosures:
// one Close per block pair, no pair-graph pass, dedup in block-pair
// order. MergeClosures must reproduce its output exactly (same
// candidates, same order) — that is what keeps Algorithm 2's candidate
// selection, and therefore the generated fusions, bit-identical.
func serialMergeClosures(top *dfsm.Machine, p P, keep func(P) bool) []P {
	blocks := p.Blocks()
	seen := NewSet(len(blocks))
	var uniq []P
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			c := Close(top, p.MergeBlocks(p.BlockOf(blocks[i][0]), p.BlockOf(blocks[j][0])))
			if keep != nil && !keep(c) {
				continue
			}
			if seen.Add(c) {
				uniq = append(uniq, c)
			}
		}
	}
	return uniq
}

func samePartitionSeq(a, b []P) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// separating returns the reference form of a forbidden list: a predicate
// that keeps the partitions separating every pair.
func separating(forbidden [][2]int) func(P) bool {
	return func(c P) bool {
		for _, e := range forbidden {
			if !c.Separates(e[0], e[1]) {
				return false
			}
		}
		return true
	}
}

// TestMergeClosuresPooledMatchesSerial is the pass-vs-serial equivalence
// property: for random tops and random closed starting partitions,
// MergeClosures returns the serial reference's exact candidate sequence,
// unconstrained and under random forbidden pairs.
func TestMergeClosuresPooledMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 80; trial++ {
		top := dfsm.RandomMachine(rng, "T", 2+rng.Intn(10), []string{"a", "b", "c"})
		n := top.NumStates()
		p := Singletons(n)
		for k := rng.Intn(3); k > 0; k-- { // random coarser starting point
			p = Close(top, p.MergeBlocks(rng.Intn(p.NumBlocks()), rng.Intn(p.NumBlocks())))
		}
		var forbidden [][2]int
		if trial%2 == 1 && n > 1 {
			forbidden = randomPairs(rng, n, 1+rng.Intn(4))
		}
		want := serialMergeClosures(top, p, separating(forbidden))
		if got := MergeClosures(top, p, forbidden); !samePartitionSeq(got, want) {
			t.Fatalf("trial %d forbidden=%v: pass %v != serial %v", trial, forbidden, got, want)
		}
	}
}
