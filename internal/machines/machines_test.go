package machines

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dfsm"
)

func TestModCounterCounts(t *testing.T) {
	m := ModCounter("c", 3, "0")
	events := strings.Split("0 0 1 0 0 1", " ")
	if got := m.Run(events); got != 4%3 {
		t.Errorf("mod-3 counter of 0s: state %d after 4 zeros, want 1", got)
	}
	if ModCounter("c1", 1, "x").NumStates() != 1 {
		t.Error("mod-1 counter broken")
	}
}

func TestZeroOneCounters(t *testing.T) {
	z, o := ZeroCounter(), OneCounter()
	if z.NumStates() != 3 || o.NumStates() != 3 {
		t.Fatal("paper counters are mod-3")
	}
	events := strings.Split("0 1 1 1 0", " ")
	if z.Run(events) != 2 {
		t.Errorf("0-Counter: %d, want 2", z.Run(events))
	}
	if o.Run(events) != 0 {
		t.Errorf("1-Counter: %d, want 0 (3 mod 3)", o.Run(events))
	}
}

func TestSumDiffCounters(t *testing.T) {
	// n0 = 4, n1 = 2: sum 6 mod 3 = 0, diff 2 mod 3 = 2.
	events := strings.Split("0 0 1 0 1 0", " ")
	if got := SumCounter(3).Run(events); got != 0 {
		t.Errorf("SumMod3 = %d, want 0", got)
	}
	if got := DiffCounter(3).Run(events); got != 2 {
		t.Errorf("DiffMod3 = %d, want 2", got)
	}
	// DiffCounter decrements modulo k from 0.
	if got := DiffCounter(3).Run([]string{"1"}); got != 2 {
		t.Errorf("DiffMod3 after one 1: %d, want 2", got)
	}
}

func TestWeightedCounter(t *testing.T) {
	// w0=1,w1=2 mod 5: after 0 0 1 → 1+1+2 = 4.
	m := WeightedCounter("w", 5, 1, 2)
	if got := m.Run([]string{"0", "0", "1"}); got != 4 {
		t.Errorf("weighted counter = %d, want 4", got)
	}
	// Weights are reduced mod k, negatives allowed.
	n := WeightedCounter("n", 3, -1, 0)
	if got := n.Run([]string{"0"}); got != 2 {
		t.Errorf("weight -1 counter = %d, want 2", got)
	}
}

func TestShiftRegister(t *testing.T) {
	m := ShiftRegister(2)
	if m.NumStates() != 4 {
		t.Fatalf("|ShiftReg2| = %d, want 4", m.NumStates())
	}
	got := m.Run([]string{"1", "0", "1", "1"})
	if m.StateName(got) != "11" {
		t.Errorf("register holds %q, want 11", m.StateName(got))
	}
	got = m.Run([]string{"1", "0"})
	if m.StateName(got) != "10" {
		t.Errorf("register holds %q, want 10", m.StateName(got))
	}
}

func TestParityMachines(t *testing.T) {
	e := EvenParity()
	if e.Run([]string{"1", "1", "0"}) != 0 {
		t.Error("even parity of two 1s should be back at even")
	}
	if e.Run([]string{"1"}) != 1 {
		t.Error("one 1 should flip parity")
	}
	o := OddParity()
	if o.Run([]string{"0"}) == o.Initial() {
		t.Error("OddParity should flip on 0")
	}
	if o.Run([]string{"1"}) != o.Initial() {
		t.Error("OddParity should ignore 1 (self-loop to same parity)")
	}
}

func TestToggleSwitch(t *testing.T) {
	m := ToggleSwitch()
	if m.Run([]string{"0"}) == m.Initial() || m.Run([]string{"0", "1"}) != m.Initial() {
		t.Error("toggle broken")
	}
}

func TestPatternDetector(t *testing.T) {
	m := PatternDetector("101")
	if m.NumStates() != 4 {
		t.Fatalf("|Pattern(101)| = %d, want 4", m.NumStates())
	}
	// Full match ends in the accepting (progress-3) state.
	if got := m.Run([]string{"1", "0", "1"}); got != 3 {
		t.Errorf("after 101: state %d, want 3", got)
	}
	// Overlapping match: 10101 ends matched again (borders work).
	if got := m.Run([]string{"1", "0", "1", "0", "1"}); got != 3 {
		t.Errorf("after 10101: state %d, want 3", got)
	}
	// Mismatch resets properly: 1 1 0 1 — the trailing 101 matches.
	if got := m.Run([]string{"1", "1", "0", "1"}); got != 3 {
		t.Errorf("after 1101: state %d, want 3", got)
	}
	if got := m.Run([]string{"0", "0"}); got != 0 {
		t.Errorf("after 00: state %d, want 0", got)
	}
}

func TestPatternDetectorRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-binary pattern accepted")
		}
	}()
	PatternDetector("1a1")
}

func TestDivider(t *testing.T) {
	m := Divider(5)
	if m.NumStates() != 5 {
		t.Fatal("Divider(5) size")
	}
	if got := m.Run([]string{"0", "1", "0", "1", "0", "0", "1"}); got != 2 {
		t.Errorf("divider after 7 events: %d, want 2", got)
	}
}

func TestMESIProtocol(t *testing.T) {
	m := MESI()
	if m.NumStates() != 4 {
		t.Fatalf("|MESI| = %d, want 4", m.NumStates())
	}
	if m.StateName(m.Initial()) != "I" {
		t.Fatal("MESI must start Invalid")
	}
	run := func(events ...string) string { return m.StateName(m.Run(events)) }
	if got := run("PrRd"); got != "E" {
		t.Errorf("I --PrRd--> %s, want E", got)
	}
	if got := run("PrRd", "PrWr"); got != "M" {
		t.Errorf("E --PrWr--> %s, want M", got)
	}
	if got := run("PrRd", "BusRd"); got != "S" {
		t.Errorf("E --BusRd--> %s, want S", got)
	}
	if got := run("PrWr", "BusRdX"); got != "I" {
		t.Errorf("M --BusRdX--> %s, want I", got)
	}
	if got := run("PrRd", "BusRd", "PrWr", "BusRd"); got != "S" {
		t.Errorf("M --BusRd--> %s, want S (writeback)", got)
	}
}

func TestMOESIProtocol(t *testing.T) {
	m := MOESI()
	if m.NumStates() != 5 {
		t.Fatalf("|MOESI| = %d, want 5", m.NumStates())
	}
	run := func(events ...string) string { return m.StateName(m.Run(events)) }
	if got := run("PrWr", "BusRd"); got != "O" {
		t.Errorf("M --BusRd--> %s, want O", got)
	}
	if got := run("PrWr", "BusRd", "PrWr"); got != "M" {
		t.Errorf("O --PrWr--> %s, want M", got)
	}
}

func TestTCPStateMachine(t *testing.T) {
	m := TCP()
	if m.NumStates() != 11 {
		t.Fatalf("|TCP| = %d, want 11 (RFC 793)", m.NumStates())
	}
	run := func(events ...string) string { return m.StateName(m.Run(events)) }
	// Three-way handshake, server side.
	if got := run("open_passive", "recv_syn", "recv_ack"); got != "ESTABLISHED" {
		t.Errorf("passive open handshake ends in %s", got)
	}
	// Client side.
	if got := run("open_active", "recv_synack"); got != "ESTABLISHED" {
		t.Errorf("active open ends in %s", got)
	}
	// Active close through TIME_WAIT back to CLOSED.
	if got := run("open_active", "recv_synack", "close", "recv_finack", "timeout"); got != "CLOSED" {
		t.Errorf("active close ends in %s", got)
	}
	// Simultaneous close goes through CLOSING.
	if got := run("open_active", "recv_synack", "close", "recv_fin"); got != "CLOSING" {
		t.Errorf("simultaneous close reaches %s", got)
	}
	// Passive close.
	if got := run("open_active", "recv_synack", "recv_fin", "close", "recv_ack"); got != "CLOSED" {
		t.Errorf("passive close ends in %s", got)
	}
	// Unexpected events are ignored (self-loop).
	if got := run("recv_fin"); got != "CLOSED" {
		t.Errorf("CLOSED --recv_fin--> %s, want CLOSED", got)
	}
}

func TestFig2Machines(t *testing.T) {
	a, b := Fig2A(), Fig2B()
	if a.NumStates() != 3 || b.NumStates() != 3 {
		t.Fatal("Fig. 2 machines must have 3 states")
	}
	p, err := dfsm.ReachableCrossProduct([]*dfsm.Machine{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if p.Top.NumStates() != 4 {
		t.Fatalf("|R({A,B})| = %d, want 4 as in Fig. 2(iii)", p.Top.NumStates())
	}
}

func TestSensorCounters(t *testing.T) {
	sensors := SensorCounters(5, 3)
	if len(sensors) != 5 {
		t.Fatal("want 5 sensors")
	}
	// Sensor i reacts only to event e<i>.
	if sensors[2].Run([]string{"e2", "e1", "e2"}) != 2 {
		t.Error("sensor 2 missed its events")
	}
	if sensors[1].Run([]string{"e2", "e0"}) != 0 {
		t.Error("sensor 1 reacted to foreign events")
	}
}

func TestSensorFusionTracksWeightedSum(t *testing.T) {
	const n, k = 4, 5
	f0 := SensorFusion(n, k, 0) // plain sum
	events := []string{"e0", "e1", "e1", "e3", "e3", "e3"}
	if got := f0.Run(events); got != 6%k {
		t.Errorf("sum fusion = %d, want %d", got, 6%k)
	}
	f1 := SensorFusion(n, k, 1) // Σ (i+1)·n_i = 1+2+2+4·3 = 17 mod 5 = 2
	if got := f1.Run(events); got != 2 {
		t.Errorf("weighted fusion = %d, want 2", got)
	}
}

func TestZooRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("zoo machine %q invalid: %v", name, err)
		}
	}
	if _, err := Get("no-such-machine"); err == nil {
		t.Error("unknown machine accepted")
	}
	if MustGet("MESI").Name() != "MESI" {
		t.Error("MustGet broken")
	}
}

// TestZooShared: Get hands out one shared instance per name, on repeated
// and concurrent calls alike, and that instance equals a fresh build of
// its constructor — sharing changes no content.
func TestZooShared(t *testing.T) {
	for _, name := range Names() {
		m := MustGet(name)
		if MustGet(name) != m {
			t.Errorf("%s: repeated Get returned a different instance", name)
		}
		fresh := registry[name]()
		if fresh.Name() != name {
			fresh = fresh.Rename(name)
		}
		if fresh == m || !fresh.Equal(m) {
			t.Errorf("%s: shared instance differs from a fresh constructor build", name)
		}
	}
	names := Names()
	got := make([]*dfsm.Machine, 8*len(names))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = MustGet(names[i%len(names)])
		}()
	}
	wg.Wait()
	for i, m := range got {
		if want := MustGet(names[i%len(names)]); m != want {
			t.Fatalf("concurrent Get(%q) returned a different instance", names[i%len(names)])
		}
	}
}

func TestPaperSuitesResolve(t *testing.T) {
	for _, s := range PaperSuites() {
		ms, err := SuiteMachines(s)
		if err != nil {
			t.Fatalf("suite %s: %v", s.Name, err)
		}
		if len(ms) != len(s.Machines) {
			t.Fatalf("suite %s resolved %d machines", s.Name, len(ms))
		}
		if s.F < 1 {
			t.Errorf("suite %s has no fault budget", s.Name)
		}
	}
}
