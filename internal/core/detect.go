package core

import (
	"fmt"
	"sort"
)

// This file implements Byzantine fault *detection*, the natural companion
// of Theorems 1–2 (an extension over the paper's recovery-only treatment):
// with dmin(A ∪ F) > f, up to f arbitrary state corruptions are
// detectable — the corrupted reports cannot all be consistent with any
// single ⊤-state — even when f exceeds the correction bound ⌊dmin−1⌋/2.
// This mirrors classical coding theory, where distance d detects d−1
// errors but corrects only ⌊(d−1)/2⌋.

// ConsistentState returns the unique ⊤-state contained in every report, if
// one exists. Outcomes:
//
//   - (t, nil): all reports agree on exactly state t — no fault detected.
//   - (-1, ErrInconsistent): no state is in all reports — at least one
//     machine has a corrupted state (fault detected).
//   - (-1, ErrAmbiguous): multiple states are in all reports — the reports
//     are mutually consistent but underdetermine ⊤ (possible when some
//     machines are missing); not a fault indication by itself.
func ConsistentState(n int, reports []Report) (int, error) {
	if n <= 0 {
		return -1, fmt.Errorf("core: consistent state over %d top states", n)
	}
	count := make([]int, n)
	for _, r := range reports {
		for _, t := range r.TopStates {
			if t < 0 || t >= n {
				return -1, fmt.Errorf("core: report from %q names ⊤-state %d outside [0,%d)", r.Machine, t, n)
			}
			count[t]++
		}
	}
	var inAll []int
	for t, c := range count {
		if c == len(reports) {
			inAll = append(inAll, t)
		}
	}
	switch len(inAll) {
	case 1:
		return inAll[0], nil
	case 0:
		return -1, ErrInconsistent
	default:
		return -1, ErrAmbiguous
	}
}

// ErrInconsistent reports that no ⊤-state is compatible with every report:
// some machine's state is corrupted.
var ErrInconsistent = fmt.Errorf("core: reports are mutually inconsistent (fault detected)")

// ErrAmbiguous reports that several ⊤-states are compatible with every
// report (insufficient information, not necessarily a fault).
var ErrAmbiguous = fmt.Errorf("core: reports underdetermine the top state")

// DetectionResult is the outcome of DetectFaults.
type DetectionResult struct {
	// Faulty is true when the report set cannot come from a fault-free run.
	Faulty bool
	// TopState is the consistent state when Faulty is false and the state
	// is determined; -1 otherwise.
	TopState int
	// Suspects lists machines involved in some minimal inconsistency —
	// each pairwise conflict contributes both parties. With a single
	// corrupted machine, it is always in Suspects.
	Suspects []string
}

// DetectFaults checks a full report set (one per live machine) for
// corruption. Unlike Recover it never guesses: it either certifies the
// reports consistent or flags the conflict. Suspects are found by
// leave-one-out analysis: a machine is a suspect when removing its report
// makes the remaining reports mutually consistent. With a single corrupted
// machine this always names the liar (removing it restores consistency);
// honest machines may occasionally be co-flagged when the liar's block
// happens to intersect everyone else's, which is the information-theoretic
// limit at this distance. With more simultaneous liars than dmin−1 the
// suspect list can be empty even though Faulty is true.
func DetectFaults(n int, reports []Report) (*DetectionResult, error) {
	t, err := ConsistentState(n, reports)
	switch err {
	case nil:
		return &DetectionResult{Faulty: false, TopState: t}, nil
	case ErrAmbiguous:
		return &DetectionResult{Faulty: false, TopState: -1}, nil
	case ErrInconsistent:
		// Fall through to suspect analysis.
	default:
		return nil, err
	}

	res := &DetectionResult{Faulty: true, TopState: -1}
	rest := make([]Report, 0, len(reports)-1)
	for i := range reports {
		rest = rest[:0]
		rest = append(rest, reports[:i]...)
		rest = append(rest, reports[i+1:]...)
		if _, err := ConsistentState(n, rest); err != ErrInconsistent {
			res.Suspects = append(res.Suspects, reports[i].Machine)
		}
	}
	sort.Strings(res.Suspects)
	return res, nil
}
