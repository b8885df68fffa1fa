package machines

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dfsm"
)

// Get returns a zoo machine by its table name, used by the CLIs. Names are
// the ones appearing in the paper's results table plus the Fig. 1/Fig. 2
// machines. The returned machine is renamed to the registry name so that
// zoo name and machine (server) name always agree.
//
// The first call builds every registry entry once; every later call
// returns that same shared instance. Machines are immutable, so sharing
// changes no content, and a long-lived server keeps one copy of the zoo
// whose table digests are computed once.
func Get(name string) (*dfsm.Machine, error) {
	m, ok := zoo()[name]
	if !ok {
		return nil, fmt.Errorf("machines: unknown machine %q (have %v)", name, Names())
	}
	return m, nil
}

// zoo builds the shared registry instances on first use.
var zoo = sync.OnceValue(func() map[string]*dfsm.Machine {
	out := make(map[string]*dfsm.Machine, len(registry))
	for name, f := range registry {
		m := f()
		if m.Name() != name {
			m = m.Rename(name)
		}
		out[name] = m
	}
	return out
})

// MustGet is Get that panics on error.
func MustGet(name string) *dfsm.Machine {
	m, err := Get(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names lists the available zoo machines, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var registry = map[string]func() *dfsm.Machine{
	"MESI":             MESI,
	"MOESI":            MOESI,
	"TCP":              TCP,
	"0-Counter":        ZeroCounter,
	"1-Counter":        OneCounter,
	"ShiftRegister":    func() *dfsm.Machine { return ShiftRegister(2) },
	"EvenParity":       EvenParity,
	"OddParity":        OddParity,
	"Toggle":           ToggleSwitch,
	"PatternGenerator": PatternGenerator,
	"Divider":          func() *dfsm.Machine { return Divider(5) },
	"A":                Fig2A,
	"B":                Fig2B,
	"SumMod3":          func() *dfsm.Machine { return SumCounter(3) },
	"DiffMod3":         func() *dfsm.Machine { return DiffCounter(3) },
	// Extended zoo (not in the paper's table; used by the scaling and
	// extension experiments).
	"TrafficLight": TrafficLight,
	"Elevator":     func() *dfsm.Machine { return Elevator(4) },
	"TokenBucket":  func() *dfsm.Machine { return TokenBucket(3) },
	"GoBackN":      func() *dfsm.Machine { return GoBackN(8) },
	"Turnstile":    Turnstile,
	"GrayCounter":  func() *dfsm.Machine { return GrayCounter(3) },
	"RingCounter":  func() *dfsm.Machine { return RingCounter(5) },
	"Thermostat":   Thermostat,
	"Vending":      VendingMachine,
}

// Suite is a named list of zoo machines plus a fault budget — one row of
// the paper's results table.
type Suite struct {
	Name     string
	Machines []string
	F        int
}

// PaperSuites returns the five rows of the paper's results table in order.
func PaperSuites() []Suite {
	return []Suite{
		{Name: "tab1.1", Machines: []string{"MESI", "1-Counter", "0-Counter", "ShiftRegister"}, F: 2},
		{Name: "tab1.2", Machines: []string{"EvenParity", "OddParity", "Toggle", "PatternGenerator", "MESI"}, F: 3},
		{Name: "tab1.3", Machines: []string{"1-Counter", "0-Counter", "Divider", "A", "B"}, F: 2},
		{Name: "tab1.4", Machines: []string{"MESI", "TCP", "A", "B"}, F: 1},
		{Name: "tab1.5", Machines: []string{"PatternGenerator", "TCP", "A", "B"}, F: 2},
	}
}

// SuiteMachines materializes a suite's machine list.
func SuiteMachines(s Suite) ([]*dfsm.Machine, error) {
	out := make([]*dfsm.Machine, len(s.Machines))
	for i, n := range s.Machines {
		m, err := Get(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
