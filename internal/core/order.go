package core

import "repro/internal/partition"

// This file implements Definition 6 (order among (f,m)-fusions) and the
// helpers around Theorem 3 (subsets of fusions are fusions).

// FusionLess reports F < G per Definition 6: the machines of G can be
// ordered as G1..Gm with Fi ≤ Gi for all i and Fj < Gj for some j. Machine
// order uses the paper's partition order (coarser ≤ finer). Both sets must
// have the same cardinality; m is small in practice, so the search over
// orderings is a simple backtracking matching.
func FusionLess(F, G []partition.P) bool {
	if len(F) != len(G) {
		return false
	}
	m := len(F)
	used := make([]bool, m)
	// assign[i] = index in G matched to F[i].
	var try func(i int, strict bool) bool
	try = func(i int, strict bool) bool {
		if i == m {
			return strict
		}
		for j := 0; j < m; j++ {
			if used[j] || !F[i].RefinedBy(G[j]) {
				continue
			}
			used[j] = true
			s := strict || F[i].StrictlyRefinedBy(G[j])
			if try(i+1, s) {
				used[j] = false
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0, false)
}

// IsLocallyMinimalFusion checks that no single machine of F can be replaced
// by an element of its lower cover while A ∪ F still tolerates f faults.
// Every fusion returned by Algorithm 2 passes this check (Theorem 5 proves
// the stronger global minimality); the function exists so tests can verify
// it independently.
func IsLocallyMinimalFusion(s *System, F []partition.P, f int) (bool, error) {
	ok, err := s.IsFusion(F, f)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	for i := range F {
		rest := make([]partition.P, 0, len(F)-1)
		rest = append(rest, F[:i]...)
		rest = append(rest, F[i+1:]...)
		for _, cand := range partition.LowerCover(s.Top, F[i]) {
			withCand := append(append([]partition.P{}, rest...), cand)
			if s.DminWith(withCand) > f {
				return false, nil // a strictly smaller machine suffices
			}
		}
	}
	return true, nil
}

// SubsetFusion drops t machines from an (f,m)-fusion, returning the
// (f−t, m−t)-fusion guaranteed by Theorem 3. The first m−t machines are
// kept; t must be ≤ min(f, m).
func SubsetFusion(F []partition.P, t int) []partition.P {
	if t < 0 || t > len(F) {
		return nil
	}
	return append([]partition.P(nil), F[:len(F)-t]...)
}
