package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// TestConcurrentUpdatesGroupCommit drives many handles' Updates
// concurrently against a Dir store — the group-commit path, where
// Update releases the handle lock before parking on the batch — and
// checks the two things that matter: every acknowledged Update replays
// after a reload (per-handle states identical), and the concurrent
// appends actually shared fsyncs. Run it under -race and it also vouches
// for the lock discipline across stage/park/compact.
func TestConcurrentUpdatesGroupCommit(t *testing.T) {
	// The OnFlush sleep gives every commit tick a floor latency, like a
	// real disk's fsync: while one batch is "on the disk", concurrent
	// Updates must pile onto the next one. Without it, a fast tmpfs can
	// serialize the whole run and the coalescing assertion gets flaky.
	st, err := store.NewDirWith(t.TempDir(), store.DirOptions{
		OnFlush: func(store.FlushStats) { time.Sleep(500 * time.Microsecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// compactEvery 8 forces snapshot compactions to interleave with the
	// batched appends mid-run, exercising generation supersession and the
	// Tee-free ordering in anger.
	r := NewStoredRegistry(0, st, 8)
	const handles, updates = 8, 20
	ids := make([]string, handles)
	for i := range ids {
		id, err := r.Add(registryCluster(t))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make([]error, handles)
	for i, id := range ids {
		h, ok := r.Get(id)
		if !ok {
			t.Fatalf("handle %s missing", id)
		}
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			for n := 0; n < updates; n++ {
				if err := h.Update(func(tx *Tx) error {
					tx.ApplyAll([]string{"0", "1", fmt.Sprint(n % 2)})
					return nil
				}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("handle %s: %v", ids[i], err)
		}
	}
	// Coalescing check: every Update stages once, so flushes == stages
	// would mean zero batching. With 8 goroutines parked behind each
	// other's fsyncs at least some batches must carry several stages.
	ws := st.WALStats()
	if stages := int64(handles * updates); ws.Flushes >= stages {
		t.Fatalf("no coalescing: %d flushes for %d staged appends (%d records)",
			ws.Flushes, stages, ws.Records)
	}

	r2, err := LoadRegistry(exec.Default(), 0, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		h, _ := r.Get(id)
		h2, ok := r2.Get(id)
		if !ok {
			t.Fatalf("reload lost %s", id)
		}
		if !reflect.DeepEqual(h.c.States(), h2.c.States()) {
			t.Fatalf("%s diverges after reload: %v vs %v", id, h.c.States(), h2.c.States())
		}
		if h.c.Step() != h2.c.Step() {
			t.Fatalf("%s step diverges: %d vs %d", id, h.c.Step(), h2.c.Step())
		}
	}
}
