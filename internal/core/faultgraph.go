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
// machines in M whose partition has ti and tj in distinct blocks.
//
// The graph stores the complement of each weight. Only a machine with more
// than one block separates anything, so the graph counts those machines
// and, per ⊤ pair, how many of them hold both states in one block; the
// weight is the machine count minus that same-block count. Pairs are
// numbered as partition's level-0 pair-graph pass numbers them,
// node(i,j) = j(j−1)/2 + i for i < j. The graph also keeps the largest
// same-block count and the number of pairs at it, so Dmin is O(1).
//
// Add buckets the states of the machine by block and touches only the
// pairs inside a block: ⊤ costs O(N), ⊥ changes nothing, and a machine of
// many small blocks touches far fewer pairs than the N(N−1)/2 edges.
// Adding a machine raises each edge weight by at most one (the observation
// behind Theorem 3). Remove, WeakestEdges and EdgesAtMost scan every pair;
// Algorithm 2 calls none of them, and grows its weakest-edge list as it
// adds the machines it generates (weakestPairs, addWeakest).
type FaultGraph struct {
	n        int
	same     []int32 // same[pairNode(i,j)]: added machines holding i and j in one block
	machines int32   // added machines with more than one block
	max      int32   // largest same count; meaningless when the graph has no edges
	nmax     int     // number of pairs whose same count is max

	// members and ends are the block buckets of the last partition
	// bucketed: block k holds members[ends[k-1]:ends[k]] (from 0 for k = 0),
	// in ascending order.
	members, ends []int32
}

// NewFaultGraph returns the empty fault graph (all weights zero) over n
// states.
func NewFaultGraph(n int) *FaultGraph {
	if n < 1 {
		panic(fmt.Sprintf("core: fault graph over %d states", n))
	}
	edges := n * (n - 1) / 2
	return &FaultGraph{n: n, same: make([]int32, edges), nmax: edges}
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

// pairNode numbers the pair i < j as the level-0 pair-graph pass does.
func pairNode(i, j int) int { return j*(j-1)/2 + i }

// N returns the number of nodes (states of ⊤).
func (g *FaultGraph) N() int { return g.n }

// bucket sorts the states of p by block into g.members and g.ends (see
// FaultGraph): one counting pass over p's block vector.
func (g *FaultGraph) bucket(p partition.P) {
	blockOf := p.View()
	ends := resize(g.ends, p.NumBlocks())
	clear(ends)
	for _, b := range blockOf {
		ends[b]++
	}
	start := int32(0)
	for k, c := range ends {
		ends[k] = start
		start += c
	}
	members := resize(g.members, len(blockOf))
	for x, b := range blockOf {
		members[ends[b]] = int32(x)
		ends[b]++
	}
	g.members, g.ends = members, ends
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// Add increments the weight of every edge the machine covers (separates):
// it counts the machine and raises the same-block count of every pair
// inside one of its blocks.
func (g *FaultGraph) Add(p partition.P) {
	if p.N() != g.n {
		panic(fmt.Sprintf("core: adding partition over %d elements to fault graph over %d states", p.N(), g.n))
	}
	if p.NumBlocks() <= 1 {
		return // ⊥ separates nothing: no edge weight changes
	}
	g.machines++
	g.bucket(p)
	mx, nmx := g.max, g.nmax
	lo := int32(0)
	for _, hi := range g.ends {
		block := g.members[lo:hi]
		lo = hi
		for a, j := range block {
			row := g.same[pairNode(0, int(j)):]
			for _, i := range block[:a] {
				v := row[i] + 1
				row[i] = v
				if v > mx {
					mx, nmx = v, 1
				} else if v == mx {
					nmx++
				}
			}
		}
	}
	g.max, g.nmax = mx, nmx
}

// Remove decrements the weight of every edge the machine covers; the
// inverse of Add, used by what-if analyses (Theorem 3 experiments). The
// machine must previously have been added: edge weights cannot go negative,
// and a Remove that would take one below zero panics and leaves the graph
// unchanged.
func (g *FaultGraph) Remove(p partition.P) {
	if p.N() != g.n {
		panic(fmt.Sprintf("core: removing partition over %d elements from fault graph over %d states", p.N(), g.n))
	}
	if p.NumBlocks() <= 1 {
		return
	}
	blockOf := p.View()
	u := 0
	for j := 1; j < g.n; j++ {
		for _, bi := range blockOf[:j] {
			if bi != blockOf[j] && g.same[u] == g.machines {
				panic("core: FaultGraph.Remove of a machine that was never added (negative edge weight)")
			}
			u++
		}
	}
	g.machines--
	mx, nmx := int32(math.MinInt32), 0
	u = 0
	for j := 1; j < g.n; j++ {
		for _, bi := range blockOf[:j] {
			v := g.same[u]
			if bi == blockOf[j] {
				v--
				g.same[u] = v
			}
			if v > mx {
				mx, nmx = v, 1
			} else if v == mx {
				nmx++
			}
			u++
		}
	}
	g.max, g.nmax = mx, nmx
}

// Weight returns the distance d(ti,tj) of Definition 4. Weight(i,i) is 0.
func (g *FaultGraph) Weight(i, j int) int {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return int(g.machines - g.same[pairNode(i, j)])
}

// Dmin returns the least edge weight (dmin of Section 3) in O(1). A
// single-state graph has no edges; by convention its dmin is returned as a
// very large number, since a one-state system cannot lose information.
func (g *FaultGraph) Dmin() int {
	if len(g.same) == 0 {
		return math.MaxInt
	}
	return int(g.machines - g.max)
}

// Edge is an unordered pair of ⊤-states (fault-graph nodes).
type Edge struct{ I, J int }

// WeakestEdges returns all edges of weight exactly Dmin(), the "weakest
// edges" Algorithm 2 must cover with the next fusion machine, in
// lexicographic (i,j) order: one scan of the pairs into a result sized by
// the count Add and Remove keep.
func (g *FaultGraph) WeakestEdges() []Edge {
	if g.nmax == 0 || len(g.same) == 0 {
		return nil
	}
	out := make([]Edge, 0, g.nmax)
	same, mx := g.same, g.max
	for i := 0; i < g.n-1; i++ {
		u := pairNode(i, i+1)
		for j := i + 1; j < g.n; j++ {
			if same[u] == mx {
				out = append(out, Edge{i, j})
			}
			u += j // pairNode(i, j+1) − pairNode(i, j)
		}
	}
	return out
}

// EdgesAtMost returns edges of weight ≤ x: exactly the pairs of states that
// cannot be distinguished after x crash faults (see the discussion after
// Definition 3).
func (g *FaultGraph) EdgesAtMost(x int) []Edge {
	var out []Edge
	same := g.same
	for i := 0; i < g.n-1; i++ {
		u := pairNode(i, i+1)
		for j := i + 1; j < g.n; j++ {
			if int(g.machines-same[u]) <= x {
				out = append(out, Edge{i, j})
			}
			u += j
		}
	}
	return out
}

// weakestPairs returns the weakest edges of g, which was built from
// parts, as Algorithm 2's forbidden list: exactly sized, each pair once,
// in no particular order. When some pair shares a block in an added
// machine, the weakest pairs are those whose same-block count is the
// largest, so they come from the block buckets of parts; otherwise every
// pair is weakest.
func (g *FaultGraph) weakestPairs(parts []partition.P) [][2]int {
	out := make([][2]int, 0, g.nmax)
	if g.nmax == len(g.same) {
		for j := 1; j < g.n; j++ {
			for i := 0; i < j; i++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	for _, p := range parts {
		if p.NumBlocks() > 1 {
			g.bucket(p)
			out = g.takeBlockPairs(out, g.max)
		}
	}
	g.untake(out, g.max)
	return out
}

// addWeakest adds m, which must separate every weakest edge, and returns
// weakest (g's weakest edges before the add) extended by the pairs that
// became weakest. m raises every edge it separates, the weakest ones
// included, so dmin rises by one and the largest same-block count stays.
// The pairs that reach that count are the pairs inside m's blocks that
// were one above dmin, and every old weakest pair stays weakest: weakest
// is a prefix of the result, which is grown by exactly the pairs added.
func (g *FaultGraph) addWeakest(m partition.P, weakest [][2]int) [][2]int {
	mx, nmx := g.max, g.nmax
	g.Add(m)
	if g.max != mx {
		panic("core: Algorithm 2 added a machine that merges a weakest edge")
	}
	if g.nmax == nmx {
		return weakest
	}
	old := len(weakest)
	weakest = g.takeBlockPairs(slices.Grow(weakest, g.nmax-nmx), mx)
	g.untake(weakest[old:], mx)
	return weakest
}

// takeBlockPairs appends to out every pair inside a block of the
// partition last bucketed whose same-block count is v > 0, and marks each
// pair taken by negating its count, so a later call takes it no more;
// untake restores the counts.
func (g *FaultGraph) takeBlockPairs(out [][2]int, v int32) [][2]int {
	lo := int32(0)
	for _, hi := range g.ends {
		block := g.members[lo:hi]
		lo = hi
		for a, j := range block {
			row := g.same[pairNode(0, int(j)):]
			for _, i := range block[:a] {
				if row[i] == v {
					out = append(out, [2]int{int(i), int(j)})
					row[i] = -v
				}
			}
		}
	}
	return out
}

// untake sets the same-block count of every pair of taken back to v.
func (g *FaultGraph) untake(taken [][2]int, v int32) {
	for _, e := range taken {
		g.same[pairNode(e[0], e[1])] = v
	}
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
	c.same = slices.Clone(g.same)
	c.members, c.ends = nil, nil
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
