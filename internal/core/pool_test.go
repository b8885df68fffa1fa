package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/partition"
)

// heldPartitions counts the partitions reachable from v through struct
// fields (unexported ones included), pointers, interfaces, maps, arrays
// and slices up to their capacity, so a test can show that a recycled
// value keeps none.
func heldPartitions(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return heldPartitions(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return heldPartitions(v.Elem(), seen)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(partition.P{}) {
			if v.Field(0).IsNil() {
				return 0
			}
			return 1
		}
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += heldPartitions(v.Field(i), seen)
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += heldPartitions(it.Key(), seen) + heldPartitions(it.Value(), seen)
		}
		return n
	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.Array:
		default:
			return 0 // scalars hold no partition
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += heldPartitions(v.Index(i), seen)
		}
		return n
	}
	return 0
}

func held(d *partition.DescentState) int {
	return heldPartitions(reflect.ValueOf(d), map[uintptr]bool{})
}

// heldByCarry counts the partitions d's ⊤ carry holds.
func heldByCarry(d *partition.DescentState) int {
	return heldPartitions(reflect.ValueOf(d).Elem().FieldByName("carry"), map[uintptr]bool{})
}

// TestPooledDescentStates: GenerateFusion's recycled DescentStates, used
// in turn on a 400-state random top, on Fig. 1's 9-state top and on a
// random 9-state top, and by four concurrent calls, return the same
// fusions as fresh states, and a state holds no partition once it is back
// in the pool, its ⊤ carry included. The two 9-state generations run two
// descents each, so a carry that outlived its call would fit the other
// top's level 0.
func TestPooledDescentStates(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	var big *System
	for big == nil {
		ms := []*dfsm.Machine{
			dfsm.RandomMachine(rng, "M0", 20, []string{"a", "b"}),
			dfsm.RandomMachine(rng, "M1", 20, []string{"c", "d"}),
		}
		sys, err := NewSystem(ms)
		if err != nil {
			t.Fatal(err)
		}
		if sys.N() == 400 {
			big = sys
		}
	}
	fig1, err := NewSystem(machineSet(t, "0-Counter", "1-Counter"))
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		sys  *System
		f    int
		want []partition.P
	}
	// A 9-state twin of Fig. 1 whose second descent leaves a carry.
	var twin *System
	for twin == nil {
		sys, err := NewSystem([]*dfsm.Machine{
			dfsm.RandomMachine(rng, "M0", 3, []string{"a"}),
			dfsm.RandomMachine(rng, "M1", 3, []string{"b"}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if sys.N() != fig1.N() || sys.Dmin() != 1 {
			continue
		}
		d := partition.NewDescentState()
		if _, err := generateWith(sys, 2, GenerateOptions{}, d); err != nil {
			t.Fatal(err)
		}
		if heldByCarry(d) > 0 {
			twin = sys
		}
	}
	runs := []*run{
		{name: "400-state top", sys: big, f: 1},
		{name: "Fig. 1", sys: fig1, f: 2},
		{name: "9-state twin", sys: twin, f: 2},
	}
	for _, r := range runs {
		if r.want, err = generateWith(r.sys, r.f, GenerateOptions{}, partition.NewDescentState()); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, r *run) error {
		got, err := GenerateFusion(r.sys, r.f, GenerateOptions{})
		if err != nil {
			return err
		}
		if len(got) != len(r.want) {
			return fmt.Errorf("%s, %s: %d fusions, fresh state %d", label, r.name, len(got), len(r.want))
		}
		for i := range got {
			if !got[i].Equal(r.want[i]) {
				return fmt.Errorf("%s, %s: fusion %d is %s, fresh state %s", label, r.name, i, got[i], r.want[i])
			}
		}
		return nil
	}

	// In turn: each call likely reuses the state the previous one put back.
	for round := 0; round < 2; round++ {
		for _, r := range runs {
			if err := check(fmt.Sprintf("round %d", round), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Four at once, each on every top.
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(runs))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range runs {
				if err := check(fmt.Sprintf("goroutine %d", w), runs[(i+w)%len(runs)]); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A state that demonstrably holds partitions, some in its ⊤ carry,
	// holds none once released, and neither does any state the pool hands
	// out now.
	d := descents.Get().(*partition.DescentState)
	if _, err := generateWith(twin, 2, GenerateOptions{}, d); err != nil {
		t.Fatal(err)
	}
	if held(d) == 0 || heldByCarry(d) == 0 {
		t.Fatalf("a state fresh from a generation holds %d partitions, %d in its carry; the check below would be vacuous",
			held(d), heldByCarry(d))
	}
	releaseDescent(d)
	if n := held(d); n != 0 {
		t.Fatalf("a released state holds %d partitions", n)
	}
	for i := 0; i < 4; i++ {
		if n := held(descents.Get().(*partition.DescentState)); n != 0 {
			t.Fatalf("pooled state %d holds %d partitions", i, n)
		}
	}
}
