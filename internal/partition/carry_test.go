package partition_test

// Equivalence suite for the ⊤ carry: the level 0 of every descent after
// the first, decided from the previous descent's passing ⊤ pairs, must
// match a fresh DescentState's full pair-graph pass under the same
// forbidden list.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/exec"
	"repro/internal/machines"
	"repro/internal/partition"
)

// carryInput is one generation to replay: a system and its f.
type carryInput struct {
	name string
	sys  *core.System
	f    int
}

// carryInputs returns each Table 1 suite, the 64-state top of three mod-4
// sensor counters at f = 2, and the random systems of core's
// TestGenerateFusionPaperOracle (same seed, same draws, same f).
func carryInputs(t *testing.T) []carryInput {
	t.Helper()
	var out []carryInput
	for _, s := range machines.PaperSuites() {
		ms, err := machines.SuiteMachines(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, carryInput{s.Name, newSystem(t, ms), s.F})
	}
	out = append(out, carryInput{"SensorCounters(3,4)", newSystem(t, machines.SensorCounters(3, 4)), 2})
	rng := rand.New(rand.NewSource(2009))
	for trial := 0; trial < 30; trial++ {
		sys := oracleSystem(t, rng, trial%2 == 1)
		out = append(out, carryInput{fmt.Sprintf("oracle trial %d", trial), sys, sys.Dmin() + trial%3})
	}
	return out
}

func newSystem(t *testing.T, ms []*dfsm.Machine) *core.System {
	t.Helper()
	sys, err := core.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// oracleSystem draws a system exactly as core's oracle test does: four
// or five random single-event machines until the top has 16 to 24
// states, plus, when backed, the system's own dmin(A)-fusion.
func oracleSystem(t *testing.T, rng *rand.Rand, backed bool) *core.System {
	t.Helper()
	events := []string{"a", "b"}
	for {
		ms := make([]*dfsm.Machine, 4+rng.Intn(2))
		for i := range ms {
			ev := events[rng.Intn(len(events))]
			ms[i] = dfsm.RandomMachine(rng, fmt.Sprintf("M%d", i), 3+rng.Intn(4), []string{ev})
		}
		sys := newSystem(t, ms)
		if sys.N() < 16 || sys.N() > 24 {
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
		return newSystem(t, append(ms, backups...))
	}
}

// growWeakest returns prev, the forbidden list of the previous descent
// (nil before the first), extended by g's weakest edges that it lacks, as
// Algorithm 2 grows its list: prev's pairs must all still be weakest, and
// prev is a prefix of the result. The result is a fresh slice.
func growWeakest(t *testing.T, prev [][2]int, g *core.FaultGraph) [][2]int {
	t.Helper()
	have := make(map[[2]int]bool, len(prev))
	for _, e := range prev {
		have[e] = true
	}
	out := slices.Clone(prev)
	for _, e := range g.WeakestEdges() {
		pair := [2]int{e.I, e.J}
		if !have[pair] {
			out = append(out, pair)
		}
		delete(have, pair)
	}
	if len(have) > 0 {
		t.Fatalf("%d pairs of the previous forbidden list are no longer weakest", len(have))
	}
	return out
}

// notExtending returns a list that does not extend prev, a non-empty
// prefix of next: next with its first and last pairs swapped, so it holds
// the same pairs, or, when next adds nothing to prev, without its first
// pair.
func notExtending(prev, next [][2]int) [][2]int {
	if len(next) == len(prev) {
		return next[1:]
	}
	bad := slices.Clone(next)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	return bad
}

// mustPanicNextDescent fails unless d.NextDescent(forbidden) panics.
func mustPanicNextDescent(t *testing.T, label string, d *partition.DescentState, forbidden [][2]int) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: NextDescent accepted a forbidden list that does not extend the carried one", label)
		}
	}()
	d.NextDescent(forbidden)
}

// assertSameLevel fails unless d and fresh, each just past a level 0 at
// ⊤ of n states, picked the same closure and hold the same verdict and
// closure for every ⊤ pair.
func assertSameLevel(t *testing.T, label string, n int, d, fresh *partition.DescentState, got, want partition.P, ok, wantOK bool) {
	t.Helper()
	if ok != wantOK || ok && !got.Equal(want) {
		t.Fatalf("%s: carried level 0 picked %v %s, fresh pass %v %s", label, ok, got, wantOK, want)
	}
	for y := 1; y < n; y++ {
		for x := 0; x < y; x++ {
			c, pass := partition.Recorded(d, x, y)
			wc, wpass := partition.Recorded(fresh, x, y)
			if pass != wpass || pass && !c.Equal(wc) {
				t.Fatalf("%s: pair (%d,%d) carried %v %s, fresh pass %v %s", label, x, y, pass, c, wpass, wc)
			}
		}
	}
}

// TestTopCarryMatchesFreshPass replays Algorithm 2's outer loop with one
// DescentState, as core's GenerateFusion does, and at every descent after
// the first compares the carried level 0 with a fresh state's full pass
// under the same weakest edges: same pick, same verdict and closure for
// every ⊤ pair, and no cascade run. The forbidden list grows as
// GenerateFusion's does, each descent's a prefix of the next, and at
// every later descent a list with the same pairs that does not extend
// the carried one must panic first. The replay must reach GenerateFusion's
// fusions, some later descents must carry a passing closure, and some
// carried closure must fail its recheck, so neither path goes unchecked.
func TestTopCarryMatchesFreshPass(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	carried, dropped := 0, 0
	for _, in := range carryInputs(t) {
		n := in.sys.N()
		g := core.BuildFaultGraph(n, in.sys.Parts)
		d := partition.NewDescentState()
		var fusions []partition.P
		var forbidden [][2]int
		for descent := 0; g.Dmin() <= in.f; descent++ {
			prev := forbidden
			forbidden = growWeakest(t, prev, g)
			if descent == 0 {
				d.Reset()
			} else {
				label := fmt.Sprintf("%s descent %d", in.name, descent)
				mustPanicNextDescent(t, label, d, notExtending(prev, forbidden))
				d.NextDescent(forbidden)
			}
			before := partition.CarriedClosures(d)
			m := partition.Singletons(n)
			best, ok := partition.MinMergeClosureOn(pool, d, in.sys.Top, m, forbidden)
			if descent > 0 {
				label := fmt.Sprintf("%s descent %d", in.name, descent)
				fresh := partition.NewDescentState()
				want, wantOK := partition.MinMergeClosureOn(pool, fresh, in.sys.Top, m, forbidden)
				assertSameLevel(t, label, n, d, fresh, best, want, ok, wantOK)
				if s := d.Stats(); s.ColdClosures != n*(n-1)/2 || s.ImpliedCascades != s.ColdClosures {
					t.Fatalf("%s: carried level 0 ran cascades: %+v", label, s)
				}
				if before > 0 {
					carried++
				}
				dropped += before - partition.CarriedClosures(d)
			}
			for ok {
				m = best
				best, ok = partition.MinMergeClosureOn(pool, d, in.sys.Top, m, forbidden)
			}
			fusions = append(fusions, m)
			g.Add(m)
		}
		want, err := core.GenerateFusion(in.sys, in.f, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(fusions) != len(want) {
			t.Fatalf("%s: replay generated %d machines, GenerateFusion %d", in.name, len(fusions), len(want))
		}
		for i := range want {
			if !fusions[i].Equal(want[i]) {
				t.Fatalf("%s: replay machine %d is %s, GenerateFusion's %s", in.name, i, fusions[i], want[i])
			}
		}
	}
	if carried == 0 || dropped == 0 {
		t.Fatalf("%d later descents carried a passing closure and %d carried closures failed a recheck; want both > 0", carried, dropped)
	}
}

// TestTopCarryOnlyAtCarriedTop: after NextDescent, a level 0 that is not
// at ⊤ of the carried top — a coarser start, or ⊤ of another top with as
// many states — must match a fresh state's level 0, and a forbidden list
// that does not contain the carried one panics.
func TestTopCarryOnlyAtCarriedTop(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(31))
	const n = 14
	first, next := [][2]int{{0, 1}}, [][2]int{{0, 1}, {2, 3}}

	// carrying returns a state that descended machine under first and
	// then started the next descent under next.
	carrying := func(machine *dfsm.Machine) *partition.DescentState {
		d := partition.NewDescentState()
		m := partition.Singletons(n)
		for {
			best, ok := partition.MinMergeClosureOn(pool, d, machine, m, first)
			if !ok {
				break
			}
			m = best
		}
		d.NextDescent(next)
		return d
	}
	// A top a whose carry still passes a closure under next: its pick
	// carriedA is the start below ⊤ checked below, where a carry applied
	// by mistake would pick carriedA or finer instead of a strictly
	// coarser closure.
	top := partition.Singletons(n)
	var a *dfsm.Machine
	var carriedA partition.P
	for okA := false; !okA; {
		a = dfsm.RandomMachine(rng, "A", n, []string{"a", "b"})
		carriedA, okA = partition.MinMergeClosureOn(pool, carrying(a), a, top, next)
	}

	// What the carry says at ⊤ of a must differ from a fresh pass at ⊤ of
	// b, or a carry that crossed tops would go unseen.
	b := dfsm.RandomMachine(rng, "B", n, []string{"a", "b"})
	for draws := 1; ; draws++ {
		want, ok := partition.MinMergeClosureOn(pool, partition.NewDescentState(), b, top, next)
		if !ok || !want.Equal(carriedA) {
			break
		}
		if draws == 100 {
			t.Fatal("100 tops of as many states all pick what the carry picks")
		}
		b = dfsm.RandomMachine(rng, "B", n, []string{"a", "b"})
	}

	for _, c := range []struct {
		name  string
		top   *dfsm.Machine
		start partition.P
	}{
		{"another top of as many states", b, top},
		{"a start below ⊤", a, carriedA},
	} {
		d, fresh := carrying(a), partition.NewDescentState()
		got, ok := partition.MinMergeClosureOn(pool, d, c.top, c.start, next)
		want, wantOK := partition.MinMergeClosureOn(pool, fresh, c.top, c.start, next)
		if ok != wantOK || ok && !got.Equal(want) {
			t.Fatalf("%s: level 0 after NextDescent picked %v %s, fresh state %v %s", c.name, ok, got, wantOK, want)
		}
		reps := c.start.Blocks()
		for j := range reps {
			for i := 0; i < j; i++ {
				x, y := reps[i][0], reps[j][0]
				g, pass := partition.Recorded(d, x, y)
				w, wpass := partition.Recorded(fresh, x, y)
				if pass != wpass || pass && !g.Equal(w) {
					t.Fatalf("%s: pair (%d,%d) %v %s after NextDescent, fresh state %v %s", c.name, x, y, pass, g, wpass, w)
				}
			}
		}
	}

	// Lists that hold the carried pair but do not start with it panic too:
	// the check is "extends", not "contains".
	for _, bad := range [][][2]int{{{2, 3}}, {{2, 3}, {0, 1}}, {}} {
		mustPanicNextDescent(t, fmt.Sprint(bad), carrying(a), bad)
	}
}
