package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/partition"
)

// FaultGraph is the weighted complete graph G(⊤, M) of Definition 3: one
// node per state of ⊤, and the weight of edge (ti,tj) is the number of
// machines in M whose partition has ti and tj in distinct blocks. Weights
// are stored in a flat upper-triangular array.
//
// The graph supports incremental machine addition (Add), which is what
// makes Algorithm 2's outer loop cheap: adding one machine raises each edge
// weight by at most one (the observation behind Theorem 3). Add and Remove
// walk every edge, and the same walk recounts dmin and the number of edges
// at dmin; Dmin() is then O(1), and WeakestEdges() is one row-major scan
// into an exactly sized result.
type FaultGraph struct {
	n    int
	w    []int32 // w[index(i,j)] for i<j; never exceeds the machines added
	dmin int     // least edge weight; meaningless when the graph has no edges
	nmin int     // number of edges of weight dmin
}

// NewFaultGraph returns the empty fault graph (all weights zero) over n
// states.
func NewFaultGraph(n int) *FaultGraph {
	if n < 1 {
		panic(fmt.Sprintf("core: fault graph over %d states", n))
	}
	edges := n * (n - 1) / 2
	return &FaultGraph{n: n, w: make([]int32, edges), nmin: edges}
}

// BuildFaultGraph constructs G over n states for the machine set given as
// partitions.
func BuildFaultGraph(n int, parts []partition.P) *FaultGraph {
	g := NewFaultGraph(n)
	for _, p := range parts {
		g.Add(p)
	}
	return g
}

// index maps an unordered state pair to its triangular slot.
func (g *FaultGraph) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row i starts at i*n - i*(i+1)/2, column offset j-i-1.
	return i*g.n - i*(i+1)/2 + (j - i - 1)
}

// N returns the number of nodes (states of ⊤).
func (g *FaultGraph) N() int { return g.n }

// Add increments the weight of every edge the machine covers (separates).
func (g *FaultGraph) Add(p partition.P) {
	if p.N() != g.n {
		panic(fmt.Sprintf("core: adding partition over %d elements to fault graph over %d states", p.N(), g.n))
	}
	g.shift(p, 1)
}

// Remove decrements the weight of every edge the machine covers; the
// inverse of Add, used by what-if analyses (Theorem 3 experiments). The
// machine must previously have been added: edge weights cannot go negative.
func (g *FaultGraph) Remove(p partition.P) {
	if p.N() != g.n {
		panic(fmt.Sprintf("core: removing partition over %d elements from fault graph over %d states", p.N(), g.n))
	}
	g.shift(p, -1)
}

// shift adds delta to the weight of every edge p separates and, in the same
// walk, recounts dmin and the edges at it.
func (g *FaultGraph) shift(p partition.P, delta int32) {
	if p.NumBlocks() <= 1 {
		return // ⊥ separates nothing: no edge weight changes
	}
	blockOf := p.View()
	dmin, nmin := int32(math.MaxInt32), 0
	k := 0
	for i := 0; i < g.n; i++ {
		bi := blockOf[i]
		for _, bj := range blockOf[i+1:] {
			w := g.w[k]
			if bi != bj {
				w += delta
				if w < 0 {
					panic("core: FaultGraph.Remove of a machine that was never added (negative edge weight)")
				}
				g.w[k] = w
			}
			if w < dmin {
				dmin, nmin = w, 1
			} else if w == dmin {
				nmin++
			}
			k++
		}
	}
	g.dmin, g.nmin = int(dmin), nmin
}

// Weight returns the distance d(ti,tj) of Definition 4. Weight(i,i) is 0.
func (g *FaultGraph) Weight(i, j int) int {
	if i == j {
		return 0
	}
	return int(g.w[g.index(i, j)])
}

// Dmin returns the least edge weight (dmin of Section 3) in O(1), as cached
// by the last Add or Remove. A single-state graph has no edges; by
// convention its dmin is returned as a very large number, since a one-state
// system cannot lose information.
func (g *FaultGraph) Dmin() int {
	if len(g.w) == 0 {
		return math.MaxInt
	}
	return g.dmin
}

// Edge is an unordered pair of ⊤-states (fault-graph nodes).
type Edge struct{ I, J int }

// WeakestEdges returns all edges of weight exactly Dmin(), the "weakest
// edges" Algorithm 2 must cover with the next fusion machine, in
// lexicographic (i,j) order: one row-major scan of the weights into a
// result sized by the count Add and Remove keep.
func (g *FaultGraph) WeakestEdges() []Edge {
	if g.nmin == 0 {
		return nil
	}
	out := make([]Edge, 0, g.nmin)
	d := int32(g.dmin)
	row := g.w
	for i := 0; i < g.n-1; i++ {
		for x, w := range row[:g.n-1-i] {
			if w == d {
				out = append(out, Edge{i, i + 1 + x})
			}
		}
		row = row[g.n-1-i:]
	}
	return out
}

// EdgesAtMost returns edges of weight ≤ x: exactly the pairs of states that
// cannot be distinguished after x crash faults (see the discussion after
// Definition 3).
func (g *FaultGraph) EdgesAtMost(x int) []Edge {
	var out []Edge
	k := 0
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if int(g.w[k]) <= x {
				out = append(out, Edge{i, j})
			}
			k++
		}
	}
	return out
}

// Covers reports whether partition p separates both endpoints of every edge
// in the list — the acceptance test of Algorithm 2's inner loop.
func Covers(p partition.P, edges []Edge) bool {
	blockOf := p.View()
	for _, e := range edges {
		if blockOf[e.I] == blockOf[e.J] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the graph.
func (g *FaultGraph) Clone() *FaultGraph {
	c := *g
	c.w = slices.Clone(g.w)
	return &c
}

// String renders the weight matrix; for small graphs only (Fig. 4 style).
func (g *FaultGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault graph over %d states, dmin=%d\n", g.n, g.Dmin())
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%2d", g.Weight(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
