package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestListZoo(t *testing.T) {
	out, err := runCapture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MESI", "TCP", "0-Counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %s", want)
		}
	}
}

func TestZooGeneration(t *testing.T) {
	out, err := runCapture(t, "-zoo", "0-Counter,1-Counter", "-f", "1", "-table", "-spec-out")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"|top| = 9", "1 backup machine(s)", "sizes [3]", "machine F1", "strict"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDescentStatsFlag(t *testing.T) {
	// MESI,TCP has a 36-state top — above the descent engine's gate, so
	// the generation runs memoized and the cascade split is populated.
	out, err := runCapture(t, "-zoo", "MESI,TCP", "-f", "2", "-descent-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "descent stats:") {
		t.Fatalf("-descent-stats output missing stats block:\n%s", out)
	}
	var descents, levels, implied, seeded, cold, closures int
	joins, skips := -1, -1
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "descent stats:") {
			if _, err := fmt.Sscanf(line, "descent stats: descents=%d levels=%d", &descents, &levels); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
		if strings.HasPrefix(line, "cascades:") {
			if _, err := fmt.Sscanf(line, "cascades: implied=%d seeded=%d cold=%d (of %d closures)", &implied, &seeded, &cold, &closures); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
		if strings.HasPrefix(line, "cross-level:") {
			if _, err := fmt.Sscanf(line, "cross-level: seeded-joins=%d pruned-skips=%d", &joins, &skips); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if joins < 0 || skips < 0 {
		t.Errorf("-descent-stats output missing the cross-level line:\n%s", out)
	}
	if strings.Contains(out, "top-cache") {
		t.Errorf("-descent-stats still reports the removed ⊤-closure cache:\n%s", out)
	}
	if descents != 2 {
		t.Errorf("descents = %d, want 2 (f=2 from dmin=1)", descents)
	}
	if levels == 0 || closures == 0 {
		t.Errorf("levels = %d, closures = %d; want both > 0", levels, closures)
	}
	if implied+seeded+cold != closures {
		t.Errorf("cascade split %d+%d+%d != %d closures", implied, seeded, cold, closures)
	}
	if implied == 0 {
		t.Errorf("implied = 0; the pair-implication memo should fire on a 36-state top")
	}
}

func TestSpecFileGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.fsm")
	src := `
machine X
initial x0
x0 a -> x1
x1 a -> x0

machine Y
initial y0
y0 b -> y1
y1 b -> y0
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "-spec", path, "-f", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "|top| = 4") {
		t.Errorf("output: %s", out)
	}
}

func TestDOTOutputFile(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "out.dot")
	if _, err := runCapture(t, "-zoo", "A,B", "-f", "1", "-dot", dot); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Error("dot file has no digraph")
	}
}

func TestPlanMode(t *testing.T) {
	out, err := runCapture(t, "-zoo", "0-Counter,1-Counter", "-f", "2", "-plan")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan for f=2", "savings", "replication: 4 machine(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCapture(t); err == nil {
		t.Error("no machines: expected error")
	}
	if _, err := runCapture(t, "-zoo", "NoSuchMachine"); err == nil {
		t.Error("unknown zoo machine accepted")
	}
	if _, err := runCapture(t, "-spec", "/nonexistent/file.fsm"); err == nil {
		t.Error("missing spec file accepted")
	}
	if _, err := runCapture(t, "-zoo", "0-Counter,1-Counter", "-f", "5", "-max-machines", "1"); err == nil {
		t.Error("max-machines guard did not trip")
	}
	if _, err := runCapture(t, "-bogus-flag"); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	m.Set("a")
	m.Set("b")
	if m.String() != "a,b" || len(m) != 2 {
		t.Errorf("multiFlag = %v", m)
	}
}

func TestWorkersFlagDeterministic(t *testing.T) {
	want, err := runCapture(t, "-zoo", "0-Counter,1-Counter", "-f", "1", "-table")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "2", "4"} {
		got, err := runCapture(t, "-zoo", "0-Counter,1-Counter", "-f", "1", "-table", "-workers", w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("-workers %s changed the generated machines:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestGoldenTable diffs Algorithm 2's output on the MESI,TCP,A,B suite
// (a 176-state top, two generated machines) against a checked-in golden,
// at one worker and at four: any closure-kernel or descent change must
// leave the generated machines bit-identical.
func TestGoldenTable(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "mesi-tcp-a-b-f2-table.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "4"} {
		got, err := runCapture(t, "-zoo", "MESI,TCP,A,B", "-f", "2", "-table", "-workers", w)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("-workers %s: output differs from golden at line %d:\n got %q\nwant %q", w, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("-workers %s: output has %d lines, golden %d", w, len(gl), len(wl))
		}
	}
}
