package partition

// Hooks for the external carry tests (carry_test.go), which need core's
// fault graph and so cannot live in package partition.

// Recorded returns the outcome d's record holds for the states x and y of
// distinct blocks of d's last level start: the pair's closure, and
// whether it passed.
func Recorded(d *DescentState, x, y int) (P, bool) { return recorded(d, x, y) }

// CarriedClosures returns the number of distinct closures d's ⊤ carry
// holds.
func CarriedClosures(d *DescentState) int { return len(d.carry.closures) }
