// Package lattice builds the closed-partition lattice of a machine
// (Section 2.1 of the paper, Fig. 3) and exposes its Hasse structure: the
// order, the covers, and the basis (the lower cover of ⊤). The nodes come
// from partition.ClosedPartitions, the one lattice enumerator, which the
// exhaustive search of package core also walks. It is intended for small
// tops — the paper itself notes the full lattice is never needed during
// fusion generation; this package exists to reproduce Fig. 3.
package lattice

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dfsm"
	"repro/internal/partition"
)

// Lattice is the complete closed-partition lattice of a top machine.
type Lattice struct {
	// Top is the machine whose state set is partitioned.
	Top *dfsm.Machine
	// Nodes lists every closed partition, sorted from fine to coarse
	// (descending block count, then by key); Nodes[0] is ⊤'s partition and
	// the last node is ⊥.
	Nodes []partition.P
	// Below[i] lists indices j with Nodes[j] < Nodes[i] and no node in
	// between (the Hasse "lower cover" edges).
	Below [][]int
}

// Build enumerates the lattice with partition.ClosedPartitions, bounded
// by maxNodes (0 = 4096), then sorts it and computes its Hasse edges.
func Build(top *dfsm.Machine, maxNodes int) (*Lattice, error) {
	nodes, err := partition.ClosedPartitions(top, maxNodes)
	if err != nil {
		return nil, err
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].NumBlocks() != nodes[j].NumBlocks() {
			return nodes[i].NumBlocks() > nodes[j].NumBlocks()
		}
		return nodes[i].Less(nodes[j])
	})

	l := &Lattice{Top: top, Nodes: nodes, Below: make([][]int, len(nodes))}
	l.computeHasse()
	return l, nil
}

// computeHasse fills Below with covering edges: j covers under i when
// Nodes[j] < Nodes[i] with nothing strictly between.
func (l *Lattice) computeHasse() {
	n := len(l.Nodes)
	less := make([][]bool, n) // less[i][j]: Nodes[j] < Nodes[i]
	for i := range less {
		less[i] = make([]bool, n)
		for j := range less[i] {
			if i != j {
				less[i][j] = l.Nodes[j].StrictlyRefinedBy(l.Nodes[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !less[i][j] {
				continue
			}
			covered := true
			for k := 0; k < n; k++ {
				if less[i][k] && less[k][j] {
					covered = false
					break
				}
			}
			if covered {
				l.Below[i] = append(l.Below[i], j)
			}
		}
	}
}

// Size returns the number of lattice nodes.
func (l *Lattice) Size() int { return len(l.Nodes) }

// TopIndex returns the index of ⊤'s partition (always 0 after sorting).
func (l *Lattice) TopIndex() int { return 0 }

// BottomIndex returns the index of ⊥ (the single-block partition).
func (l *Lattice) BottomIndex() int { return len(l.Nodes) - 1 }

// Basis returns the lower cover of ⊤ — the paper's "basis" of the lattice.
func (l *Lattice) Basis() []partition.P {
	out := make([]partition.P, 0, len(l.Below[0]))
	for _, j := range l.Below[l.TopIndex()] {
		out = append(out, l.Nodes[j])
	}
	return out
}

// Find returns the index of an equal partition, or -1.
func (l *Lattice) Find(p partition.P) int {
	for i, q := range l.Nodes {
		if q.Equal(p) {
			return i
		}
	}
	return -1
}

// Contains reports whether the partition is in the lattice (i.e. closed).
func (l *Lattice) Contains(p partition.P) bool { return l.Find(p) >= 0 }

// DOT renders the Hasse diagram in Graphviz syntax, one node per closed
// partition labelled with its block notation — the shape of Fig. 3.
func (l *Lattice) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n")
	label := func(i int) string {
		p := l.Nodes[i]
		switch i {
		case l.TopIndex():
			return "⊤ " + l.describe(p)
		case l.BottomIndex():
			return "⊥ " + l.describe(p)
		default:
			return l.describe(p)
		}
	}
	for i := range l.Nodes {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, label(i))
	}
	for i, below := range l.Below {
		for _, j := range below {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", j, i) // arrow from smaller to larger
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// describe renders a partition using the top's state names.
func (l *Lattice) describe(p partition.P) string {
	blocks := p.Blocks()
	parts := make([]string, len(blocks))
	for i, blk := range blocks {
		names := make([]string, len(blk))
		for j, s := range blk {
			names[j] = l.Top.StateName(s)
		}
		parts[i] = "{" + strings.Join(names, ",") + "}"
	}
	return strings.Join(parts, " ")
}

// Summary prints one line per rank (block count), for the CLI.
func (l *Lattice) Summary() string {
	byRank := map[int]int{}
	for _, p := range l.Nodes {
		byRank[p.NumBlocks()]++
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ranks)))
	var b strings.Builder
	fmt.Fprintf(&b, "closed-partition lattice of %s: %d machines\n", l.Top.Name(), l.Size())
	for _, r := range ranks {
		fmt.Fprintf(&b, "  %2d blocks: %d machine(s)\n", r, byRank[r])
	}
	return b.String()
}
