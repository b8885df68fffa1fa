package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestFigureExperiments(t *testing.T) {
	cases := map[string][]string{
		"fig1": {"Fig. 1", "(1,1)-fusion: true", "Byzantine fault: true"},
		"fig2": {"Fig. 2", "|R({A,B})| = 4"},
		"fig3": {"Fig. 3", "lattice"},
		"fig4": {"Fig. 4", "dmin = 3"},
		"fig5": {"Fig. 5", "Algorithm 1"},
	}
	for exp, wants := range cases {
		out, err := runCapture(t, "-experiment", exp)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", exp, w)
			}
		}
	}
}

// TestFig3DOT pins Fig. 3's Hasse diagram byte for byte: the output of
// fig3 -dot from its "digraph lattice" line on must equal
// testdata/fig3.dot.golden.
func TestFig3DOT(t *testing.T) {
	out, err := runCapture(t, "-experiment", "fig3", "-dot")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(out, "digraph lattice")
	if i < 0 {
		t.Fatalf("missing Hasse diagram:\n%s", out)
	}
	want, err := os.ReadFile("testdata/fig3.dot.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out[i:]; got != string(want) {
		t.Errorf("Fig. 3 DOT differs from testdata/fig3.dot.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSensorExperiment(t *testing.T) {
	out, err := runCapture(t, "-experiment", "sensor")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verified: true") {
		t.Errorf("sensor recovery not verified:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := runCapture(t, "-experiment", "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := runCapture(t, "-badflag"); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestTable1AndRecovery runs the heavy experiments; skipped in -short.
func TestTable1AndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped in -short mode")
	}
	out, err := runCapture(t, "-experiment", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "tab1.") != 5 {
		t.Errorf("table has wrong row count:\n%s", out)
	}
	out, err = runCapture(t, "-experiment", "recovery", "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "true") < 5 {
		t.Errorf("recovery rows missing:\n%s", out)
	}
}
