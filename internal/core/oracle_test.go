package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/partition"
)

// Oracle parameters for TestGenerateFusionPaperOracle. Tops are drawn
// with 16 to 24 states: large enough for multi-level descents and small
// enough for the closed-partition lattice walk, which is exponential in the worst
// case and therefore capped. A capped trial still runs the checks that
// need no lattice; at least oracleMinWalks trials must finish the walk,
// so the lattice checks can never pass vacuously. Likewise at least
// oracleMinDeep machines from a second or third descent must lie strictly
// below ⊤, so the multi-descent path is checked on real descents and not
// only on level-0 fan-outs that find no candidate.
const (
	oracleTrials     = 30
	oracleMinStates  = 16
	oracleMaxStates  = 24
	oracleLatticeCap = 2000
	oracleMinWalks   = 25
	oracleMinDeep    = 5
)

// TestGenerateFusionPaperOracle checks Algorithm 2 against the paper's
// own claims on seeded random systems whose tops take the DescentState
// path. Half the systems carry a generated backup already (dmin = 2), and
// f is chosen so that f − dmin(A) + 1 cycles through 1, 2 and 3, which
// covers single and multi-descent generations. For every system:
//
//   - A ∪ F tolerates f crash faults (IsFusion);
//   - |F| = max(0, f − dmin(A) + 1) (Theorem 5);
//   - no machine of F can be replaced by one of its lower cover
//     (IsLocallyMinimalFusion);
//   - every machine of F is a node of the closed-partition lattice
//     (partition.ClosedPartitions), and no strictly coarser node can
//     replace it, when the walk fits under the cap. This restates local
//     minimality over the whole down-set instead of one lower cover.
func TestGenerateFusionPaperOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	walks, deep := 0, 0
	for trial := 0; trial < oracleTrials; trial++ {
		sys := oracleSystem(t, rng, trial%2 == 1)
		d := sys.Dmin()
		k := 1 + trial%3
		f := d - 1 + k
		F, err := core.GenerateFusion(sys, f, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("trial %d (|top|=%d, dmin=%d, f=%d): %v", trial, sys.N(), d, f, err)
		}
		ok, err := sys.IsFusion(F, f)
		if err != nil || !ok {
			t.Fatalf("trial %d: generated set is not an (f=%d)-fusion: %v %v", trial, f, ok, err)
		}
		if len(F) != k {
			t.Fatalf("trial %d: |F| = %d, want f − dmin + 1 = %d", trial, len(F), k)
		}
		minimal, err := core.IsLocallyMinimalFusion(sys, F, f)
		if err != nil || !minimal {
			t.Fatalf("trial %d: generated set is not locally minimal: %v %v", trial, minimal, err)
		}
		for _, m := range F[1:] {
			if m.NumBlocks() < sys.N() {
				deep++
			}
		}

		lattice, err := partition.ClosedPartitions(sys.Top, oracleLatticeCap)
		if err != nil {
			continue // capped: counted against oracleMinWalks below
		}
		walks++
		nodes := make(map[string]bool, len(lattice))
		for _, p := range lattice {
			nodes[p.Key()] = true
		}
		for i, m := range F {
			if !nodes[m.Key()] {
				t.Fatalf("trial %d: F[%d] = %s is not in the %d-node closed-partition lattice",
					trial, i, m, len(lattice))
			}
			swapped := append([]partition.P(nil), F...)
			for _, q := range lattice {
				if !q.StrictlyRefinedBy(m) {
					continue
				}
				swapped[i] = q
				if sys.DminWith(swapped) > f {
					t.Fatalf("trial %d: F[%d] = %s can be replaced by the coarser %s", trial, i, m, q)
				}
			}
		}
	}
	if walks < oracleMinWalks {
		t.Fatalf("only %d of %d trials finished the lattice walk under the %d-node cap; want ≥ %d",
			walks, oracleTrials, oracleLatticeCap, oracleMinWalks)
	}
	if deep < oracleMinDeep {
		t.Fatalf("only %d later-descent machines lie below ⊤; want ≥ %d", deep, oracleMinDeep)
	}
}

// oracleSystem draws systems of four or five random machines, each on one
// event of {a, b}, until the top has oracleMinStates..oracleMaxStates
// states. Single-event machines have rich congruence lattices, so the
// descents go below ⊤; machines on both events rarely do. With backed,
// the system also carries its own dmin(A)-fusion as extra machines, which
// keeps the top and raises dmin by one.
func oracleSystem(t *testing.T, rng *rand.Rand, backed bool) *core.System {
	t.Helper()
	events := []string{"a", "b"}
	for {
		ms := make([]*dfsm.Machine, 4+rng.Intn(2))
		for i := range ms {
			ev := events[rng.Intn(len(events))]
			ms[i] = dfsm.RandomMachine(rng, fmt.Sprintf("M%d", i), 3+rng.Intn(4), []string{ev})
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		if sys.N() < oracleMinStates || sys.N() > oracleMaxStates {
			continue
		}
		if !backed {
			return sys
		}
		F, err := core.GenerateFusion(sys, sys.Dmin(), core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		backups, err := sys.FusionMachines(F, "B")
		if err != nil {
			t.Fatal(err)
		}
		if sys, err = core.NewSystem(append(ms, backups...)); err != nil {
			t.Fatal(err)
		}
		return sys
	}
}
