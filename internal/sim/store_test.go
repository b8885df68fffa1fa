package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/trace"
)

// TestClusterSpecRoundTrip: a cluster rebuilt from its marshalled spec
// has the same servers, fusion, and initial states — the determinism the
// durable registry leans on.
func TestClusterSpecRoundTrip(t *testing.T) {
	c := newTestCluster(t, 1)
	data, err := json.Marshal(c.Spec())
	if err != nil {
		t.Fatal(err)
	}
	var spec ClusterSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	back, err := NewClusterFromSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ServerNames(), c.ServerNames()) {
		t.Fatalf("servers diverge: %v vs %v", back.ServerNames(), c.ServerNames())
	}
	if !reflect.DeepEqual(back.States(), c.States()) {
		t.Fatalf("states diverge: %v vs %v", back.States(), c.States())
	}
	cf, bf := c.Fusion(), back.Fusion()
	if len(cf) != len(bf) {
		t.Fatalf("fusion count diverges: %d vs %d", len(cf), len(bf))
	}
	for i := range cf {
		if !reflect.DeepEqual(cf[i].Blocks(), bf[i].Blocks()) {
			t.Fatalf("fusion %d diverges", i)
		}
	}
	// Same seed: the rebuilt cluster draws the same Byzantine corruption.
	if err := c.Inject(trace.Fault{Server: "F1", Kind: trace.Byzantine}); err != nil {
		t.Fatal(err)
	}
	if err := back.Inject(trace.Fault{Server: "F1", Kind: trace.Byzantine}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.States(), c.States()) {
		t.Fatalf("seeded corruption diverges: %v vs %v", back.States(), c.States())
	}
}

// TestErrRegistryFull: Add's capacity rejection is the typed error, so
// services can map it without string matching.
func TestErrRegistryFull(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Add(registryCluster(t)); err != nil {
		t.Fatal(err)
	}
	_, err := r.Add(registryCluster(t))
	if !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("Add beyond capacity = %v, want ErrRegistryFull", err)
	}
}

// driveStored runs a representative mutating workload through a stored
// registry: events, a crash, a Byzantine corruption, a recovery, more
// events. Returns the handle id.
func driveStored(t *testing.T, r *Registry) string {
	t.Helper()
	id, err := r.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	err = h.Update(func(tx *Tx) error {
		tx.ApplyAll([]string{"0", "1", "1", "0"})
		if err := tx.Inject(trace.Fault{Server: "F1", Kind: trace.Crash}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = h.Update(func(tx *Tx) error {
		tx.ApplyAll([]string{"1", "0"})
		if err := tx.Inject(trace.Fault{Server: "0-Counter", Kind: trace.Byzantine}); err != nil {
			return err
		}
		if _, err := tx.Recover(); err != nil {
			return err
		}
		tx.ApplyAll([]string{"1", "1", "1"})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// assertSameCluster compares everything a restart must preserve.
func assertSameCluster(t *testing.T, want, got *Cluster) {
	t.Helper()
	if !reflect.DeepEqual(got.ServerNames(), want.ServerNames()) {
		t.Fatalf("servers diverge: %v vs %v", got.ServerNames(), want.ServerNames())
	}
	if got.Step() != want.Step() {
		t.Fatalf("step diverges: %d vs %d", got.Step(), want.Step())
	}
	if !reflect.DeepEqual(got.States(), want.States()) {
		t.Fatalf("states diverge: %v vs %v", got.States(), want.States())
	}
	if got.Metrics().Snapshot() != want.Metrics().Snapshot() {
		t.Fatalf("metrics diverge: %+v vs %+v", got.Metrics().Snapshot(), want.Metrics().Snapshot())
	}
	if !reflect.DeepEqual(got.Verify(), want.Verify()) {
		t.Fatalf("verify diverges: %v vs %v", got.Verify(), want.Verify())
	}
}

// TestStoredRegistryReload is the tentpole's sim-level guarantee: a
// registry reloaded from its store is bit-identical — ids, steps,
// per-server states, metrics, and future behavior.
func TestStoredRegistryReload(t *testing.T) {
	for _, tc := range []struct {
		name         string
		compactEvery int
	}{
		{"wal-replay", 1000},   // no compaction: pure WAL tail replay
		{"compact-every-2", 2}, // aggressive compaction: snapshot + short tails
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := store.NewMem()
			r := NewStoredRegistry(0, st, tc.compactEvery)
			id := driveStored(t, r)

			r2, err := LoadRegistry(exec.Default(), 0, st, tc.compactEvery)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r2.IDs(), r.IDs()) {
				t.Fatalf("ids diverge: %v vs %v", r2.IDs(), r.IDs())
			}
			h, _ := r.Get(id)
			h2, ok := r2.Get(id)
			if !ok {
				t.Fatalf("reloaded registry lost %s", id)
			}
			assertSameCluster(t, h.c, h2.c)

			// The reloaded registry keeps behaving like the original:
			// same window, same resulting states, and the id sequence
			// continues without reuse.
			if err := h.Update(func(tx *Tx) error { tx.ApplyAll([]string{"0", "1"}); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := h2.Update(func(tx *Tx) error { tx.ApplyAll([]string{"0", "1"}); return nil }); err != nil {
				t.Fatal(err)
			}
			assertSameCluster(t, h.c, h2.c)
			next, err := r2.Add(registryCluster(t))
			if err != nil {
				t.Fatal(err)
			}
			if next != "c2" {
				t.Fatalf("id after reload = %s, want c2", next)
			}
		})
	}
}

// TestFailedRecoveryCounterSurvivesReload: an ambiguous vote restores
// nothing but counts a failed recovery, and that counter must not
// regress across a restart (Prometheus rate() over the restart window
// would silently lie).
func TestFailedRecoveryCounterSurvivesReload(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 1000)
	id, err := r.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	err = h.Update(func(tx *Tx) error {
		for _, name := range []string{"0-Counter", "1-Counter", "F1"} {
			if err := tx.Inject(trace.Fault{Server: name, Kind: trace.Crash}); err != nil {
				return err
			}
		}
		if _, err := tx.Recover(); err == nil {
			return errors.New("recovery with every server crashed succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.c.Metrics().Snapshot().FailedRecoveries; got != 1 {
		t.Fatalf("live FailedRecoveries = %d, want 1", got)
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := r2.Get(id)
	assertSameCluster(t, h.c, h2.c)
}

// findRec locates one cluster's record in a store Load (which also
// carries the registry's reserved _meta record).
func findRec(t *testing.T, recs []StoreRecord, id string) StoreRecord {
	t.Helper()
	for _, r := range recs {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no record for %s in %d records", id, len(recs))
	return StoreRecord{}
}

// TestStoredRegistryCompaction: crossing the WAL threshold snapshots and
// truncates; the store never holds more than compactEvery-1 records
// after an Update, and reload from the compacted state is identical.
func TestStoredRegistryCompaction(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 3)
	id, err := r.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	for i := 0; i < 7; i++ {
		if err := h.Update(func(tx *Tx) error { tx.ApplyAll([]string{"0"}); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec := findRec(t, recs, id)
	if rec.Snapshot == nil {
		t.Fatal("no snapshot after crossing the compaction threshold")
	}
	if len(rec.WAL) >= 3 {
		t.Fatalf("WAL not compacted: %d records", len(rec.WAL))
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 3)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := r2.Get(id)
	assertSameCluster(t, h.c, h2.c)
}

// TestSnapshotAll: the shutdown drain compacts pending journals so a
// reload replays nothing, and skips clusters with empty journals.
func TestSnapshotAll(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 1000)
	id := driveStored(t, r)
	if err := r.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec := findRec(t, recs, id)
	if rec.Snapshot == nil || len(rec.WAL) != 0 {
		t.Fatalf("drain did not compact: snap=%v wal=%d", rec.Snapshot != nil, len(rec.WAL))
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	h2, _ := r2.Get(id)
	assertSameCluster(t, h.c, h2.c)
}

// TestStoredRegistryRemove: Remove deletes the durable record too — a
// deleted cluster does not resurrect on reload.
func TestStoredRegistryRemove(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 0)
	id := driveStored(t, r)
	if ok, err := r.Remove(id); !ok || err != nil {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 0 {
		t.Fatalf("removed cluster resurrected: %v", r2.IDs())
	}
	// The freed capacity is real but the sequence is not rewound within
	// the original registry's lifetime.
	next, err := r.Add(registryCluster(t))
	if err != nil || next != "c2" {
		t.Fatalf("Add after Remove = %q, %v; want c2", next, err)
	}
}

// TestTxRestoreRebases: a Restore inside Update compacts on the spot —
// the rewound state is the new durable baseline and the pre-restore
// records of the sequence never replay on top of it.
func TestTxRestoreRebases(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 1000)
	id, err := r.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	var cp *Checkpoint
	if err := h.Update(func(tx *Tx) error {
		tx.ApplyAll([]string{"0", "1", "0"})
		cp = tx.Cluster().Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Update(func(tx *Tx) error {
		tx.ApplyAll([]string{"1", "1"})
		return tx.Restore(cp)
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec := findRec(t, recs, id)
	if rec.Snapshot == nil || len(rec.WAL) != 0 {
		t.Fatalf("restore did not rebase: snap=%v wal=%d", rec.Snapshot != nil, len(rec.WAL))
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := r2.Get(id)
	assertSameCluster(t, h.c, h2.c)
	if h2.c.Step() != 3 {
		t.Fatalf("reloaded step = %d, want the restored 3", h2.c.Step())
	}
}

// TestStoredRegistryFileBackend runs the reload round trip on the real
// file backend, reopening the directory the way a restarted process
// would.
func TestStoredRegistryFileBackend(t *testing.T) {
	root := t.TempDir()
	st, err := store.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	r := NewStoredRegistry(0, st, 4)
	id := driveStored(t, r)

	st2, err := store.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRegistry(exec.Default(), 0, st2, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	h2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("file backend lost %s", id)
	}
	assertSameCluster(t, h.c, h2.c)
}

// TestIDsNotReusedAcrossReload: deleting the highest-id cluster and
// reloading must not re-mint that id — a client still holding the dead
// handle would silently address a different cluster. The durable _meta
// high-water mark guards this.
func TestIDsNotReusedAcrossReload(t *testing.T) {
	st := store.NewMem()
	r := NewStoredRegistry(0, st, 0)
	for i := 0; i < 3; i++ {
		if _, err := r.Add(registryCluster(t)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := r.Remove("c3"); !ok || err != nil {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	r2, err := LoadRegistry(exec.Default(), 0, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := r2.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if next != "c4" {
		t.Fatalf("id after delete+reload = %s, want c4 (c3 must stay dead)", next)
	}
}

// flakyStore wraps a Store and fails StageEvents while tripped — the
// transient-disk-error harness for the dirty-handle healing path.
type flakyStore struct {
	Store
	failAppends bool
}

func (f *flakyStore) StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error) {
	if f.failAppends {
		return nil, errors.New("injected append failure")
	}
	return f.Store.StageEvents(id, recs, onCommit)
}

// TestDirtyHandleHealsBySnapshot: a failed append leaves the store
// behind the in-memory cluster; later windows must NOT be appended on
// top of the gap (that would replay to divergent state). The handle
// heals with a full snapshot on the next Update, after which reload
// matches the live cluster — including the window whose append failed.
func TestDirtyHandleHealsBySnapshot(t *testing.T) {
	mem := store.NewMem()
	st := &flakyStore{Store: mem}
	r := NewStoredRegistry(0, st, 1000)
	id, err := r.Add(registryCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := r.Get(id)
	if err := h.Update(func(tx *Tx) error { tx.ApplyAll([]string{"0", "1"}); return nil }); err != nil {
		t.Fatal(err)
	}

	st.failAppends = true
	err = h.Update(func(tx *Tx) error { tx.ApplyAll([]string{"1", "1", "1"}); return nil })
	if err == nil {
		t.Fatal("failed append not surfaced")
	}
	// The disk recovers; the next window must heal the gap, not widen it.
	st.failAppends = false
	if err := h.Update(func(tx *Tx) error { tx.ApplyAll([]string{"0"}); return nil }); err != nil {
		t.Fatalf("healing update: %v", err)
	}
	r2, err := LoadRegistry(exec.Default(), 0, mem, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := r2.Get(id)
	assertSameCluster(t, h.c, h2.c)
	if h2.c.Step() != 6 {
		t.Fatalf("reloaded step = %d, want 6 (lost window healed)", h2.c.Step())
	}
}
