package fusion_test

import (
	"context"
	"errors"
	"testing"
	"time"

	fusion "repro"
	"repro/internal/core"
)

// TestEngineGenerateMatchesDefault: worker count is a throughput knob,
// never a semantic one — engines of every size return the exact fusion
// the default path returns.
func TestEngineGenerateMatchesDefault(t *testing.T) {
	ms := []*fusion.Machine{mustZoo(t, "MESI"), mustZoo(t, "1-Counter"), mustZoo(t, "0-Counter")}
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fusion.Generate(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		e := fusion.NewEngine(fusion.EngineOptions{Workers: workers})
		if e.Workers() != workers {
			t.Fatalf("engine has %d workers, want %d", e.Workers(), workers)
		}
		got, err := e.Generate(sys, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d machines, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: machine %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEngineClusterReproducible: the same seed yields the same simulation
// outcome on engines of different sizes.
func TestEngineClusterReproducible(t *testing.T) {
	ms := []*fusion.Machine{mustZoo(t, "0-Counter"), mustZoo(t, "1-Counter")}
	events := []string{"e0", "e1", "e0", "e0", "e1"}
	var first []int
	for _, workers := range []int{1, 3} {
		c, err := fusion.NewEngine(fusion.EngineOptions{Workers: workers}).NewCluster(ms, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		c.ApplyAll(events)
		states := c.States()
		if first == nil {
			first = states
			continue
		}
		for i := range states {
			if states[i] != first[i] {
				t.Fatalf("workers=%d: server %d state %d, want %d", workers, i, states[i], first[i])
			}
		}
	}
}

// TestNewEngineDistinct: NewEngine always returns a fresh engine, even
// for a zero options value — DefaultEngine is the one way to reach the
// shared engine — and closing a fresh engine leaves the default working.
func TestNewEngineDistinct(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{})
	if e == fusion.DefaultEngine() {
		t.Fatal("NewEngine{} aliases the default engine")
	}
	if e.Workers() < 1 {
		t.Fatal("engine with Workers=0 should follow the shared pool's GOMAXPROCS sizing")
	}
	if err := e.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Release()
	e.Close()
	if err := e.Acquire(context.Background()); !errors.Is(err, fusion.ErrEngineClosed) {
		t.Fatalf("Acquire on a closed engine: %v, want ErrEngineClosed", err)
	}

	def := fusion.DefaultEngine()
	if err := def.Acquire(context.Background()); err != nil {
		t.Fatalf("default engine refuses work after another engine closed: %v", err)
	}
	def.Release()
	sys, err := fusion.NewSystem([]*fusion.Machine{mustZoo(t, "MESI"), mustZoo(t, "1-Counter")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Generate(sys, 1); err != nil {
		t.Fatalf("default engine Generate after another engine closed: %v", err)
	}
}

// TestEngineAdmission drives the semaphore+queue state machine
// deterministically: maxInFlight slots admit immediately, queueDepth more
// wait in FIFO order, the next caller is shed with ErrQueueFull, and
// Release hands slots to waiters in arrival order.
func TestEngineAdmission(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{Workers: 1, MaxInFlight: 2, QueueDepth: 2})
	for i := 0; i < 2; i++ {
		if err := e.Acquire(context.Background()); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := e.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Two callers fit in the queue; their grant order must match arrival.
	type result struct {
		id  int
		err error
	}
	grants := make(chan result, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() { grants <- result{i, e.Acquire(context.Background())} }()
		// Wait until this caller is visibly queued before starting the
		// next, so arrival order is deterministic.
		waitFor(t, func() bool { return e.Queued() == i+1 })
	}

	// Queue is full: the fifth caller is shed immediately.
	if err := e.Acquire(context.Background()); !errors.Is(err, fusion.ErrQueueFull) {
		t.Fatalf("over-queue acquire = %v, want ErrQueueFull", err)
	}

	// Releases grant the queued callers in FIFO order.
	e.Release()
	first := <-grants
	if first.err != nil || first.id != 0 {
		t.Fatalf("first grant = {%d %v}, want caller 0", first.id, first.err)
	}
	e.Release()
	second := <-grants
	if second.err != nil || second.id != 1 {
		t.Fatalf("second grant = {%d %v}, want caller 1", second.id, second.err)
	}

	// Drain and shut down.
	e.Release()
	e.Release()
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with zero in-flight")
	}
	if err := e.Acquire(context.Background()); !errors.Is(err, fusion.ErrEngineClosed) {
		t.Fatalf("acquire after Close = %v, want ErrEngineClosed", err)
	}
}

// TestEngineAdmissionQueueTimeout: a queued caller gives up with
// ErrQueueTimeout once QueueTimeout elapses, and the abandoned queue slot
// becomes available again.
func TestEngineAdmissionQueueTimeout(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{
		Workers: 1, MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond,
	})
	defer e.Close()
	if err := e.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Acquire(nil); !errors.Is(err, fusion.ErrQueueTimeout) {
		t.Fatalf("queued acquire = %v, want ErrQueueTimeout", err)
	}
	if got := e.Queued(); got != 0 {
		t.Fatalf("Queued = %d after timeout, want 0", got)
	}
	e.Release()
}

// TestEngineAdmissionContextCancel: a queued caller unblocks with the
// context error when its request is cancelled.
func TestEngineAdmissionContextCancel(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{Workers: 1, MaxInFlight: 1, QueueDepth: 1})
	defer e.Close()
	if err := e.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- e.Acquire(ctx) }()
	waitFor(t, func() bool { return e.Queued() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	e.Release()
}

// TestEngineCloseDrains: Close blocks until in-flight work Releases,
// fails queued waiters with ErrEngineClosed, and is idempotent.
func TestEngineCloseDrains(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{Workers: 2, MaxInFlight: 1, QueueDepth: 4})
	if err := e.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- e.Acquire(context.Background()) }()
	waitFor(t, func() bool { return e.Queued() == 1 })

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	if err := <-queuedErr; !errors.Is(err, fusion.ErrEngineClosed) {
		t.Fatalf("queued acquire during Close = %v, want ErrEngineClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	e.Release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last Release")
	}
	e.Close() // idempotent
}

// TestEngineIsLocallyMinimalFusion checks that a dedicated engine's
// lower-cover verification accepts its own generated fusion and agrees
// with the package-level check.
func TestEngineIsLocallyMinimalFusion(t *testing.T) {
	e := fusion.NewEngine(fusion.EngineOptions{Workers: 2})
	defer e.Close()
	sys, err := fusion.NewSystem([]*fusion.Machine{mustZoo(t, "0-Counter"), mustZoo(t, "1-Counter")})
	if err != nil {
		t.Fatal(err)
	}
	F, err := e.Generate(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	minimal, err := e.IsLocallyMinimalFusion(sys, F, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !minimal {
		t.Fatal("generated fusion not locally minimal")
	}
	ref, err := core.IsLocallyMinimalFusion(sys, F, 1)
	if err != nil {
		t.Fatal(err)
	}
	if minimal != ref {
		t.Fatalf("engine verdict %v, package verdict %v", minimal, ref)
	}
}

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustZoo(t *testing.T, name string) *fusion.Machine {
	t.Helper()
	m, err := fusion.ZooMachine(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
