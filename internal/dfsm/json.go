package dfsm

import (
	"encoding/json"
	"fmt"
)

// machineJSON is the wire form of a Machine. Transitions are stored by name
// so files remain readable and robust to reordering.
type machineJSON struct {
	Name        string           `json:"name"`
	States      []string         `json:"states"`
	Events      []string         `json:"events"`
	Initial     string           `json:"initial"`
	Transitions []transitionJSON `json:"transitions"`
}

type transitionJSON struct {
	From  string `json:"from"`
	Event string `json:"event"`
	To    string `json:"to"`
}

// MarshalJSON implements json.Marshaler.
func (m *Machine) MarshalJSON() ([]byte, error) {
	out := machineJSON{
		Name:    m.name,
		States:  m.States(),
		Events:  m.Events(),
		Initial: m.states[m.initial],
	}
	for s, row := range m.delta {
		for e, t := range row {
			out.Transitions = append(out.Transitions, transitionJSON{
				From: m.states[s], Event: m.events[e], To: m.states[t],
			})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Machine) UnmarshalJSON(data []byte) error {
	var in machineJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	stateIx := make(map[string]int, len(in.States))
	for i, s := range in.States {
		stateIx[s] = i
	}
	eventIx := make(map[string]int, len(in.Events))
	for i, e := range in.Events {
		eventIx[e] = i
	}
	delta := make([][]int, len(in.States))
	set := make([][]bool, len(in.States))
	for s := range delta {
		delta[s] = make([]int, len(in.Events))
		set[s] = make([]bool, len(in.Events))
	}
	for _, tr := range in.Transitions {
		s, ok := stateIx[tr.From]
		if !ok {
			return fmt.Errorf("dfsm: json machine %q: unknown state %q", in.Name, tr.From)
		}
		e, ok := eventIx[tr.Event]
		if !ok {
			return fmt.Errorf("dfsm: json machine %q: unknown event %q", in.Name, tr.Event)
		}
		t, ok := stateIx[tr.To]
		if !ok {
			return fmt.Errorf("dfsm: json machine %q: unknown state %q", in.Name, tr.To)
		}
		delta[s][e] = t
		set[s][e] = true
	}
	for s := range set {
		for e := range set[s] {
			if !set[s][e] {
				return fmt.Errorf("dfsm: json machine %q: missing transition from %q on %q", in.Name, in.States[s], in.Events[e])
			}
		}
	}
	init, ok := stateIx[in.Initial]
	if !ok {
		return fmt.Errorf("dfsm: json machine %q: unknown initial state %q", in.Name, in.Initial)
	}
	built, err := NewMachine(in.Name, in.States, in.Events, delta, init)
	if err != nil {
		return err
	}
	// Assigned field by field because the digest cache is an atomic, which
	// must not be copied; it is cleared because m now holds a new table.
	m.name, m.states, m.events, m.eventIx = built.name, built.states, built.events, built.eventIx
	m.initial, m.delta = built.initial, built.delta
	m.digest.Store(nil)
	return nil
}
