package machines

import "repro/internal/dfsm"

// Machines A and B of Fig. 2 of the paper. The published figure gives the
// state sets and the block structure of the reachable cross product
// (|A|=|B|=3, |R({A,B})|=4, with a 3-state machine M1 below the top) but
// the OCR'd text does not fully specify the arrows. The transition tables
// below are a faithful reconstruction with exactly those properties,
// verified computationally in the tests:
//
//   - R({A,B}) has 4 states t0..t3 with t0={a0,b0}, t1={a1,b1},
//     t2={a2,b2}, t3={a0,b2};
//   - A corresponds to the closed partition {t0,t3},{t1},{t2} of the top;
//   - B corresponds to {t0},{t1},{t2,t3};
//   - M1 (see Fig2M1Partition) = {t0,t2},{t1},{t3} is a closed partition,
//     so the 3-state machine M1 of Fig. 2 exists in the lattice.

// Fig2A returns machine A of Fig. 2.
func Fig2A() *dfsm.Machine {
	return dfsm.MustMachine("A",
		[]string{"a0", "a1", "a2"},
		[]string{EventZero, EventOne},
		[][]int{
			// e0  e1
			{1, 0}, // a0
			{2, 0}, // a1
			{1, 0}, // a2
		}, 0)
}

// Fig2B returns machine B of Fig. 2.
func Fig2B() *dfsm.Machine {
	return dfsm.MustMachine("B",
		[]string{"b0", "b1", "b2"},
		[]string{EventZero, EventOne},
		[][]int{
			// e0  e1
			{1, 2}, // b0
			{2, 0}, // b1
			{1, 2}, // b2
		}, 0)
}

// Fig2M1Blocks returns the blocks of machine M1 of Fig. 2 in terms of the
// top states of R({Fig2A,Fig2B}); the top's BFS order from {a0,b0} is
// t0={a0,b0}, t1={a1,b1}, t2={a0,b2}... NOTE: the actual index order
// depends on the product BFS; use core.System to resolve. The blocks below
// are expressed as component tuples instead, which is order-independent:
// M1 groups {a0,b0} with {a2,b2}, and keeps {a1,b1} and {a0,b2} alone.
func Fig2M1Blocks() [][][2]string {
	return [][][2]string{
		{{"a0", "b0"}, {"a2", "b2"}},
		{{"a1", "b1"}},
		{{"a0", "b2"}},
	}
}
