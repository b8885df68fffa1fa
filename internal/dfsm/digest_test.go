package dfsm

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

// TestTableDigestCached: the digest kept on the machine equals a fresh
// hash of its table, on the first call and on every later one.
func TestTableDigestCached(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := RandomMachine(rng, "d", 1+rng.Intn(8), []string{"a", "b", "c"})
		want := m.tableDigest()
		for i := 0; i < 3; i++ {
			if got := m.TableDigest(); got != want {
				t.Fatalf("trial %d call %d: TableDigest differs from the unmemoized hash", trial, i)
			}
		}
	}
}

// TestTableDigestRename: a renamed copy hashes its own content, not the
// digest already cached on the original.
func TestTableDigestRename(t *testing.T) {
	m := RandomMachine(rand.New(rand.NewSource(4)), "orig", 5, []string{"a", "b"})
	orig := m.TableDigest()
	r := m.Rename("renamed")
	if got := r.TableDigest(); got == orig || got != r.tableDigest() {
		t.Fatal("Rename carried the original's digest")
	}
	if m.TableDigest() != orig {
		t.Fatal("Rename changed the original's digest")
	}
}

// TestTableDigestUnmarshalResets: decoding into a machine whose digest is
// cached replaces the table, so the digest must follow the new table.
func TestTableDigestUnmarshalResets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandomMachine(rng, "first", 4, []string{"a", "b"})
	other := RandomMachine(rng, "second", 6, []string{"a", "b", "c"})
	m.TableDigest()
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		t.Fatal(err)
	}
	if m.TableDigest() != other.TableDigest() {
		t.Fatal("UnmarshalJSON kept the previous table's digest")
	}
}

// TestTableDigestConcurrentFirstCalls: goroutines racing on the first
// call all see the same digest (run under -race in CI).
func TestTableDigestConcurrentFirstCalls(t *testing.T) {
	m := RandomMachine(rand.New(rand.NewSource(6)), "race", 8, []string{"a", "b", "c"})
	want := m.tableDigest()
	const n = 8
	got := make([][32]byte, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.TableDigest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("goroutine %d saw a different digest", i)
		}
	}
}
