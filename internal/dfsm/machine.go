// Package dfsm implements deterministic finite state machines (DFSMs) as
// defined in Section 2 of Ogale, Balasubramanian and Garg, "A Fusion-based
// Approach for Tolerating Faults in Finite State Machines" (IPPS 2009).
//
// A DFSM is a quadruple (X, Σ, α, a0): a finite state set X, a finite event
// set Σ, a transition function α: X×Σ → X, and an initial state a0. Machines
// in a system may have different alphabets; an event outside a machine's
// alphabet is ignored (the machine self-loops), matching the paper's system
// model in which the environment broadcasts every event to every server.
package dfsm

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Machine is an immutable deterministic finite state machine. Construct one
// with NewMachine or a Builder; the zero value is not useful.
type Machine struct {
	name    string
	states  []string
	events  []string
	eventIx map[string]int
	initial int
	// delta[s][e] is the state reached from state s on event index e.
	delta [][]int
	// digest caches TableDigest; nil until the first call.
	digest atomic.Pointer[[32]byte]
}

// NewMachine constructs a validated machine.
//
// states and events are the state and event names in index order; delta is
// indexed as delta[state][event]; initial is the initial state index. The
// slices are copied, so the caller may reuse them.
func NewMachine(name string, states, events []string, delta [][]int, initial int) (*Machine, error) {
	m := &Machine{
		name:    name,
		states:  append([]string(nil), states...),
		events:  append([]string(nil), events...),
		initial: initial,
		eventIx: make(map[string]int, len(events)),
		delta:   make([][]int, len(delta)),
	}
	for i, row := range delta {
		m.delta[i] = append([]int(nil), row...)
	}
	for i, e := range m.events {
		if _, dup := m.eventIx[e]; dup {
			return nil, fmt.Errorf("dfsm: machine %q: duplicate event %q", name, e)
		}
		m.eventIx[e] = i
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustMachine is NewMachine that panics on error; intended for statically
// known machine definitions such as the model zoo.
func MustMachine(name string, states, events []string, delta [][]int, initial int) *Machine {
	m, err := NewMachine(name, states, events, delta, initial)
	if err != nil {
		panic(err)
	}
	return m
}

// Validate checks the structural invariants of the machine: non-empty state
// set, total transition function with in-range targets, in-range initial
// state, unique state names, and reachability of every state from the
// initial state (the paper's model assumes all states are reachable).
func (m *Machine) Validate() error {
	if m.name == "" {
		return fmt.Errorf("dfsm: machine has empty name")
	}
	if len(m.states) == 0 {
		return fmt.Errorf("dfsm: machine %q has no states", m.name)
	}
	if m.initial < 0 || m.initial >= len(m.states) {
		return fmt.Errorf("dfsm: machine %q: initial state %d out of range [0,%d)", m.name, m.initial, len(m.states))
	}
	seen := make(map[string]bool, len(m.states))
	for _, s := range m.states {
		if s == "" {
			return fmt.Errorf("dfsm: machine %q has an empty state name", m.name)
		}
		if seen[s] {
			return fmt.Errorf("dfsm: machine %q: duplicate state name %q", m.name, s)
		}
		seen[s] = true
	}
	if len(m.delta) != len(m.states) {
		return fmt.Errorf("dfsm: machine %q: delta has %d rows, want %d", m.name, len(m.delta), len(m.states))
	}
	for s, row := range m.delta {
		if len(row) != len(m.events) {
			return fmt.Errorf("dfsm: machine %q: delta row %d has %d entries, want %d", m.name, s, len(row), len(m.events))
		}
		for e, t := range row {
			if t < 0 || t >= len(m.states) {
				return fmt.Errorf("dfsm: machine %q: delta[%d][%d]=%d out of range", m.name, s, e, t)
			}
		}
	}
	if unreachable := m.unreachableStates(); len(unreachable) > 0 {
		names := make([]string, len(unreachable))
		for i, s := range unreachable {
			names[i] = m.states[s]
		}
		return fmt.Errorf("dfsm: machine %q: unreachable states %v", m.name, names)
	}
	return nil
}

func (m *Machine) unreachableStates() []int {
	reached := make([]bool, len(m.states))
	stack := []int{m.initial}
	reached[m.initial] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := range m.events {
			t := m.delta[s][e]
			if !reached[t] {
				reached[t] = true
				stack = append(stack, t)
			}
		}
	}
	var out []int
	for s, r := range reached {
		if !r {
			out = append(out, s)
		}
	}
	return out
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// NumStates returns |X|, the size of the machine as defined in the paper.
func (m *Machine) NumStates() int { return len(m.states) }

// NumEvents returns |Σ|.
func (m *Machine) NumEvents() int { return len(m.events) }

// Initial returns the initial state index a0.
func (m *Machine) Initial() int { return m.initial }

// States returns a copy of the state names in index order.
func (m *Machine) States() []string { return append([]string(nil), m.states...) }

// Events returns a copy of the event names in index order.
func (m *Machine) Events() []string { return append([]string(nil), m.events...) }

// StateName returns the name of state s.
func (m *Machine) StateName(s int) string { return m.states[s] }

// StateIndex returns the index of the named state, or -1 if absent.
func (m *Machine) StateIndex(name string) int {
	for i, s := range m.states {
		if s == name {
			return i
		}
	}
	return -1
}

// EventIndex returns the index of the named event, or -1 if the event is not
// in this machine's alphabet.
func (m *Machine) EventIndex(name string) int {
	if i, ok := m.eventIx[name]; ok {
		return i
	}
	return -1
}

// HasEvent reports whether the event is in this machine's alphabet.
func (m *Machine) HasEvent(name string) bool {
	_, ok := m.eventIx[name]
	return ok
}

// NextByIndex returns α(s, e) for an event index of this machine.
func (m *Machine) NextByIndex(s, e int) int { return m.delta[s][e] }

// Next returns the successor of state s on the named event. Events outside
// the machine's alphabet are ignored: the machine stays in s.
func (m *Machine) Next(s int, event string) int {
	e, ok := m.eventIx[event]
	if !ok {
		return s
	}
	return m.delta[s][e]
}

// Run applies a sequence of (possibly foreign) events starting from the
// initial state and returns the final state.
func (m *Machine) Run(events []string) int {
	return m.RunFrom(m.initial, events)
}

// RunFrom applies a sequence of events starting from state s.
func (m *Machine) RunFrom(s int, events []string) int {
	for _, ev := range events {
		s = m.Next(s, ev)
	}
	return s
}

// Rename returns a copy of the machine with a different name.
func (m *Machine) Rename(name string) *Machine {
	c := m.clone()
	c.name = name
	return c
}

func (m *Machine) clone() *Machine {
	c := &Machine{
		name:    m.name,
		states:  append([]string(nil), m.states...),
		events:  append([]string(nil), m.events...),
		initial: m.initial,
		eventIx: make(map[string]int, len(m.eventIx)),
		delta:   make([][]int, len(m.delta)),
	}
	for k, v := range m.eventIx {
		c.eventIx[k] = v
	}
	for i, row := range m.delta {
		c.delta[i] = append([]int(nil), row...)
	}
	return c
}

// Equal reports whether two machines are structurally identical: same name,
// state names, event names, initial state and transition table.
func (m *Machine) Equal(o *Machine) bool {
	if m == o {
		return true
	}
	if m == nil || o == nil {
		return false
	}
	if m.name != o.name || m.initial != o.initial {
		return false
	}
	if len(m.states) != len(o.states) || len(m.events) != len(o.events) {
		return false
	}
	for i := range m.states {
		if m.states[i] != o.states[i] {
			return false
		}
	}
	for i := range m.events {
		if m.events[i] != o.events[i] {
			return false
		}
	}
	for s := range m.delta {
		for e := range m.delta[s] {
			if m.delta[s][e] != o.delta[s][e] {
				return false
			}
		}
	}
	return true
}

// String returns a short human-readable summary.
func (m *Machine) String() string {
	return fmt.Sprintf("%s(|X|=%d, |Σ|=%d)", m.name, len(m.states), len(m.events))
}

// Table renders the full transition table, for debugging and the CLI.
func (m *Machine) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s  initial=%s\n", m.name, m.states[m.initial])
	fmt.Fprintf(&b, "%-16s", "state\\event")
	for _, e := range m.events {
		fmt.Fprintf(&b, " %-12s", e)
	}
	b.WriteByte('\n')
	for s, row := range m.delta {
		fmt.Fprintf(&b, "%-16s", m.states[s])
		for _, t := range row {
			fmt.Fprintf(&b, " %-12s", m.states[t])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// UnionAlphabet returns the sorted union of the alphabets of the given
// machines. The cross product and the fault-graph machinery operate over
// this union.
func UnionAlphabet(machines []*Machine) []string {
	set := make(map[string]bool)
	for _, m := range machines {
		for _, e := range m.events {
			set[e] = true
		}
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}
