package fcache_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	fusion "repro"
	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/fcache"
	"repro/internal/machines"
)

// generateBoth runs the same request cold (fusion.Generate) and through a
// cache the way fusiond does (core.RequestDigest, then Cache.Do): a miss
// that computes and inserts, then a hit that serves the stored entry.
func generateBoth(t *testing.T, ms []*dfsm.Machine, f int) (cold, cached []fusion.Partition) {
	t.Helper()
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	cold, err = fusion.Generate(sys, f)
	if err != nil {
		t.Fatal(err)
	}

	cache := fcache.New(fcache.Options{})
	key := core.RequestDigest(ms, f, core.GenerateOptions{})
	compute := func() (fcache.Entry, error) {
		parts, err := fusion.Generate(sys, f)
		return fcache.Entry{Key: key, N: sys.N(), Parts: parts}, err
	}
	for _, want := range []fcache.Outcome{fcache.Miss, fcache.Hit} {
		ent, out, err := cache.Do(key, compute)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("Do outcome %v, want %v", out, want)
		}
		if ent.N != sys.N() {
			t.Fatalf("%v entry N = %d, want %d", out, ent.N, sys.N())
		}
		cached = ent.Parts
	}
	return cold, cached
}

// samePartitions demands bit-identical results: same count, same canonical
// block structure, same equality under the partition's own comparison.
func samePartitions(t *testing.T, label string, cold, cached []fusion.Partition) {
	t.Helper()
	if len(cold) != len(cached) {
		t.Fatalf("%s: %d cold vs %d cached partitions", label, len(cold), len(cached))
	}
	for i := range cold {
		if !cold[i].Equal(cached[i]) {
			t.Fatalf("%s: partition %d differs", label, i)
		}
		if !reflect.DeepEqual(cold[i].Blocks(), cached[i].Blocks()) {
			t.Fatalf("%s: partition %d block form differs", label, i)
		}
	}
}

// TestCachedEquivalenceTable1: for every row of the paper's results table,
// the cache serves exactly what the cold path computes.
func TestCachedEquivalenceTable1(t *testing.T) {
	for _, suite := range machines.PaperSuites() {
		suite := suite
		t.Run(suite.Name, func(t *testing.T) {
			t.Parallel()
			ms, err := machines.SuiteMachines(suite)
			if err != nil {
				t.Fatal(err)
			}
			cold, cached := generateBoth(t, ms, suite.F)
			samePartitions(t, suite.Name, cold, cached)
		})
	}
}

// TestCachedEquivalenceRandom: same property over randomly generated
// machine sets, where structural accidents (symmetric tables, unreachable
// states) are more likely than in the curated zoo.
func TestCachedEquivalenceRandom(t *testing.T) {
	events := []string{"a", "b", "c"}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			ms := []*dfsm.Machine{
				dfsm.RandomMachine(rng, "r0", 3+rng.Intn(3), events),
				dfsm.RandomMachine(rng, "r1", 3+rng.Intn(3), events),
			}
			cold, cached := generateBoth(t, ms, 1)
			samePartitions(t, "random", cold, cached)
		})
	}
}
