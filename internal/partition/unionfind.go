package partition

// UnionFind is a classic disjoint-set forest with union by rank and path
// compression. It is the workhorse of the closed-partition closure
// computation (Hartmanis–Stearns pair algebra). The closure kernel builds
// one forest per fan-out and starts every cascade from a copy of it
// (copyFrom) in a worker's exec scratch slot, so no forest is reset or
// allocated per closure.
type UnionFind struct {
	parent []int
	rank   []byte
	sets   int
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]byte, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// copyFrom makes uf a copy of base, reusing uf's arrays when they are
// large enough.
func (uf *UnionFind) copyFrom(base *UnionFind) {
	n := len(base.parent)
	if cap(uf.parent) >= n {
		uf.parent = uf.parent[:n]
		uf.rank = uf.rank[:n]
	} else {
		uf.parent = make([]int, n)
		uf.rank = make([]byte, n)
	}
	copy(uf.parent, base.parent)
	copy(uf.rank, base.rank)
	uf.sets = base.sets
}

// flatten points every element straight at its root, so parent doubles
// as a root table and a copy of the forest answers each Find in one step.
func (uf *UnionFind) flatten() {
	for x := range uf.parent {
		uf.parent[x] = uf.Find(x)
	}
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y, returning true if they were distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (uf *UnionFind) Same(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

// Partition snapshots the forest as a normalized partition, with roots
// renumbered by first appearance. The result vector doubles as the
// renumbering table, so it is the only allocation: states are visited in
// increasing order, so the slot of a root above the current state is not
// written yet and can hold the root's id, encoded as -(id+1), until the
// visit reaches it; the slot of a root below it already holds its id.
func (uf *UnionFind) Partition() P {
	n := len(uf.parent)
	blockOf := make([]int, n)
	blocks := 0
	for x := 0; x < n; x++ {
		r := uf.Find(x)
		switch {
		case r < x:
			blockOf[x] = blockOf[r]
		case blockOf[r] < 0: // id noted at the root by an earlier member
			blockOf[x] = -blockOf[r] - 1
		default: // x is the first member of its set
			blockOf[x] = blocks
			if r > x {
				blockOf[r] = -blocks - 1
			}
			blocks++
		}
	}
	return newP(blockOf, blocks)
}
