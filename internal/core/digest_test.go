package core

import (
	"encoding/json"
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
// same tables hash identically. The second set is a JSON round trip of
// the first, so no instance (and no cached table digest) is shared.
func TestRequestDigestDeterministic(t *testing.T) {
	a := digestMachines(t, "MESI", "1-Counter")
	b := make([]*dfsm.Machine, len(a))
	for i, m := range a {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		b[i] = new(dfsm.Machine)
		if err := json.Unmarshal(data, b[i]); err != nil {
			t.Fatal(err)
		}
		if a[i] == b[i] {
			t.Fatal("want distinct machine instances")
		}
	}
	if RequestDigest(a, 2, GenerateOptions{}) != RequestDigest(b, 2, GenerateOptions{}) {
		t.Fatal("same request content, different digests")
	}
}

// TestRequestDigestPinned pins the hex digests of two requests, so a
// change to the hashed byte stream cannot silently re-key the fcache
// entries persisted under DigestScheme 1.
func TestRequestDigestPinned(t *testing.T) {
	if DigestScheme != 1 {
		t.Fatalf("DigestScheme = %d; re-pin these digests when bumping it", DigestScheme)
	}
	for _, tc := range []struct {
		names []string
		f     int
		opts  GenerateOptions
		want  string
	}{
		{[]string{"MESI", "1-Counter"}, 2, GenerateOptions{},
			"b5b80df447a474f0d5c36dfa5722d810b184aeccd0e8f07340fe9ef7fc8caada"},
		{[]string{"MESI", "TCP", "A", "B"}, 1, GenerateOptions{MaxMachines: 9},
			"aed41c037c5a620a52280403f352a37b50e374704fe1306c174c3f96f0b94cfc"},
	} {
		if got := RequestDigest(digestMachines(t, tc.names...), tc.f, tc.opts).String(); got != tc.want {
			t.Errorf("RequestDigest(%v, f=%d, %+v) = %s, want %s", tc.names, tc.f, tc.opts, got, tc.want)
		}
	}
}

// TestRequestDigestNoAlloc: with the table digests cached on the
// machines, a request digest allocates nothing.
func TestRequestDigestNoAlloc(t *testing.T) {
	ms := digestMachines(t, "MESI", "1-Counter", "0-Counter", "ShiftRegister")
	if n := testing.AllocsPerRun(100, func() { RequestDigest(ms, 2, GenerateOptions{MaxMachines: 8}) }); n != 0 {
		t.Fatalf("RequestDigest allocates %.0f times per call, want 0", n)
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
// (and served from the machine's cached digest rather than re-serialized).
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
