package core

import (
	"math/rand"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/exec"
	"repro/internal/machines"
)

func digestMachines(t *testing.T, names ...string) []*dfsm.Machine {
	t.Helper()
	ms := make([]*dfsm.Machine, len(names))
	for i, n := range names {
		m, err := machines.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// TestRequestDigestDeterministic: the digest is a pure function of the
// request content — independently constructed machine instances with the
// same tables hash identically.
func TestRequestDigestDeterministic(t *testing.T) {
	a := digestMachines(t, "MESI", "1-Counter")
	b := digestMachines(t, "MESI", "1-Counter")
	if &a[0] == &b[0] {
		t.Fatal("want distinct machine instances")
	}
	if RequestDigest(a, 2, GenerateOptions{}) != RequestDigest(b, 2, GenerateOptions{}) {
		t.Fatal("same request content, different digests")
	}
}

// TestRequestDigestSensitivity: everything that can change the generated
// fusion changes the digest — machine set, machine order, f, and the
// outcome-affecting MaxMachines option.
func TestRequestDigestSensitivity(t *testing.T) {
	base := RequestDigest(digestMachines(t, "MESI", "1-Counter"), 2, GenerateOptions{})
	for name, other := range map[string]Digest{
		"different machine": RequestDigest(digestMachines(t, "MESI", "0-Counter"), 2, GenerateOptions{}),
		"machine order":     RequestDigest(digestMachines(t, "1-Counter", "MESI"), 2, GenerateOptions{}),
		"fewer machines":    RequestDigest(digestMachines(t, "MESI"), 2, GenerateOptions{}),
		"different f":       RequestDigest(digestMachines(t, "MESI", "1-Counter"), 1, GenerateOptions{}),
		"max machines":      RequestDigest(digestMachines(t, "MESI", "1-Counter"), 2, GenerateOptions{MaxMachines: 3}),
	} {
		if other == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
	// The pool is a serving concern, not content.
	if RequestDigest(digestMachines(t, "MESI", "1-Counter"), 2, GenerateOptions{Pool: exec.Default()}) != base {
		t.Error("Pool changed the digest; it must not (it never changes the output)")
	}
}

// TestRequestDigestTableContent: the digest reads full transition tables,
// not names — two machines that differ only in behavior hash apart, and
// renaming a machine (same table) also hashes apart (names are part of
// the canonical serialization the JSON codec round-trips).
func TestRequestDigestTableContent(t *testing.T) {
	events := []string{"a", "b"}
	m1 := dfsm.RandomMachine(rand.New(rand.NewSource(1)), "m", 4, events)
	m2 := dfsm.RandomMachine(rand.New(rand.NewSource(2)), "m", 4, events)
	if RequestDigest([]*dfsm.Machine{m1}, 1, GenerateOptions{}) ==
		RequestDigest([]*dfsm.Machine{m2}, 1, GenerateOptions{}) {
		t.Fatal("same name, different tables: digests collide")
	}
	m3 := dfsm.RandomMachine(rand.New(rand.NewSource(1)), "renamed", 4, events)
	if RequestDigest([]*dfsm.Machine{m1}, 1, GenerateOptions{}) ==
		RequestDigest([]*dfsm.Machine{m3}, 1, GenerateOptions{}) {
		t.Fatal("renamed machine digests identically")
	}
}

// TestTableDigestMemoized: repeated digests of one instance are stable
// (and served from the memo rather than re-serialized).
func TestTableDigestMemoized(t *testing.T) {
	m := digestMachines(t, "TCP")[0]
	first := m.TableDigest()
	for i := 0; i < 3; i++ {
		if m.TableDigest() != first {
			t.Fatal("TableDigest not stable across calls")
		}
	}
}

func TestDigestStringRoundTrip(t *testing.T) {
	d := RequestDigest(digestMachines(t, "MESI"), 1, GenerateOptions{})
	s := d.String()
	if len(s) != 64 {
		t.Fatalf("hex form is %d chars, want 64", len(s))
	}
	back, ok := ParseDigest(s)
	if !ok || back != d {
		t.Fatalf("ParseDigest(%q) = %v, %v", s, back, ok)
	}
	for _, bad := range []string{"", "zz", s[:63], s + "0", s[:62] + "zz"} {
		if _, ok := ParseDigest(bad); ok {
			t.Errorf("ParseDigest(%q) accepted malformed input", bad)
		}
	}
}
