package core_test

// Property tests pinning the optimization equivalences of the
// allocation-light hot path: the forbidden-pair merge-closure evaluation,
// the incremental fault-graph bookkeeping, and the hashed candidate dedup
// must all be observationally identical to their straightforward
// counterparts.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/partition"
)

// randomEquivSystem builds a small random multi-machine system over a
// shared alphabet, retrying until the top is within the size budget.
func randomEquivSystem(t *testing.T, rng *rand.Rand, maxTop int) *core.System {
	t.Helper()
	events := []string{"a", "b"}
	for {
		n := 2 + rng.Intn(2)
		ms := make([]*dfsm.Machine, n)
		for i := range ms {
			ms[i] = dfsm.RandomMachine(rng, fmt.Sprintf("M%d", i), 2+rng.Intn(3), events)
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		if sys.N() <= maxTop {
			return sys
		}
	}
}

// serialMergeClosures is the per-pair reference for
// partition.MergeClosures, with no pair-graph pass: CloseMergingStates on
// every block pair of m, deduplicated in block-pair order, keeping the
// closures that cover required (nil keeps them all).
func serialMergeClosures(top *dfsm.Machine, m partition.P, required []core.Edge) []partition.P {
	blocks := m.Blocks()
	seen := partition.NewSet(0)
	var out []partition.P
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			c := partition.CloseMergingStates(top, m, blocks[i][0], blocks[j][0])
			if core.Covers(c, required) && seen.Add(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// TestGuardedMergeClosuresEquivalence checks, along full Algorithm 2
// descents of random systems, that MergeClosures with the weakest edges
// as forbidden pairs returns exactly the per-pair closures filtered by
// Covers — same partitions, same order.
func TestGuardedMergeClosuresEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		sys := randomEquivSystem(t, rng, 48)
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		required := g.WeakestEdges()
		forbidden := make([][2]int, len(required))
		for i, e := range required {
			forbidden[i] = [2]int{e.I, e.J}
		}

		m := partition.Singletons(sys.N())
		for m.NumBlocks() > 1 {
			constrained := partition.MergeClosures(sys.Top, m, forbidden)
			plain := serialMergeClosures(sys.Top, m, required)
			if len(constrained) != len(plain) {
				t.Fatalf("trial %d: constrained returned %d candidates, filtered %d", trial, len(constrained), len(plain))
			}
			for i := range constrained {
				if !constrained[i].Equal(plain[i]) {
					t.Fatalf("trial %d: candidate %d differs: constrained %s vs filtered %s",
						trial, i, constrained[i], plain[i])
				}
			}
			if len(constrained) == 0 {
				break
			}
			m = constrained[0]
			for _, c := range constrained[1:] {
				if c.Less(m) {
					m = c
				}
			}
		}
	}
}

// TestFaultGraphIncrementalEquivalence checks that the incremental
// Add/Remove bookkeeping (the dmin and weakest-edge count each walk keeps,
// and WeakestEdges sized from it) agrees with a from-scratch
// BuildFaultGraph after every mutation.
func TestFaultGraphIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(24)
		var parts []partition.P
		for i := 0; i < 8; i++ {
			switch i {
			case 0:
				parts = append(parts, partition.Single(n)) // exercises the ⊥ early-skip
			case 1:
				parts = append(parts, partition.Singletons(n))
			default:
				assign := make([]int, n)
				blocks := 1 + rng.Intn(n)
				for j := range assign {
					assign[j] = rng.Intn(blocks)
				}
				parts = append(parts, partition.FromAssignment(assign))
			}
		}

		g := core.NewFaultGraph(n)
		for i, p := range parts {
			g.Add(p)
			assertGraphEqual(t, trial, fmt.Sprintf("after add %d", i), g, core.BuildFaultGraph(n, parts[:i+1]))
		}
		// Remove in a shuffled order; compare with a rebuild of the rest.
		order := rng.Perm(len(parts))
		remaining := append([]partition.P(nil), parts...)
		for _, idx := range order {
			victim := parts[idx]
			g.Remove(victim)
			for j, q := range remaining {
				if q.Equal(victim) {
					remaining = append(remaining[:j], remaining[j+1:]...)
					break
				}
			}
			assertGraphEqual(t, trial, fmt.Sprintf("after remove %d", idx), g, core.BuildFaultGraph(n, remaining))
		}
	}
}

func assertGraphEqual(t *testing.T, trial int, step string, got, want *core.FaultGraph) {
	t.Helper()
	if got.Dmin() != want.Dmin() {
		t.Fatalf("trial %d %s: incremental dmin %d, rebuilt dmin %d", trial, step, got.Dmin(), want.Dmin())
	}
	gw, ww := got.WeakestEdges(), want.WeakestEdges()
	if len(gw) != len(ww) {
		t.Fatalf("trial %d %s: incremental %d weakest edges, rebuilt %d", trial, step, len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("trial %d %s: weakest edge %d: %v vs %v", trial, step, i, gw[i], ww[i])
		}
	}
	for i := 0; i < got.N(); i++ {
		for j := i + 1; j < got.N(); j++ {
			if got.Weight(i, j) != want.Weight(i, j) {
				t.Fatalf("trial %d %s: weight(%d,%d) = %d, rebuilt %d",
					trial, step, i, j, got.Weight(i, j), want.Weight(i, j))
			}
		}
	}
}
