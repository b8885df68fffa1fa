package repl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dfsm"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// leaderRig is a minimal in-process leader: a Dir store teed into an op
// feed, with a stored sim registry journaling through the Tee — exactly
// the production write path, minus HTTP.
type leaderRig struct {
	log *store.Log
	dir *store.Dir
	reg *sim.Registry
}

func newLeaderRig(t *testing.T, epoch uint64, compactEvery int) *leaderRig {
	t.Helper()
	dir, err := store.NewDir(filepath.Join(t.TempDir(), "default"))
	if err != nil {
		t.Fatal(err)
	}
	log := store.NewLog(epoch, 0)
	tee := store.NewTee("default", dir, log)
	reg := sim.NewStoredRegistry(0, tee, compactEvery)
	return &leaderRig{log: log, dir: dir, reg: reg}
}

func (lr *leaderRig) addCluster(t *testing.T, seed int64) string {
	t.Helper()
	c, err := sim.NewCluster([]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	id, err := lr.reg.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func (lr *leaderRig) drive(t *testing.T, id string, events []string, faults ...trace.Fault) {
	t.Helper()
	h, ok := lr.reg.Get(id)
	if !ok {
		t.Fatalf("no cluster %q", id)
	}
	if err := h.Update(func(tx *sim.Tx) error {
		tx.ApplyAll(events)
		for _, f := range faults {
			if err := tx.Inject(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// ship mirrors the shipper: full-sync on epoch mismatch, then stream
// everything past the follower's applied mark in one batch.
func ship(t *testing.T, lr *leaderRig, f *Follower) NodeStatus {
	t.Helper()
	st := f.Status()
	if st.Epoch != lr.log.Epoch() {
		var err error
		if st, err = f.FullSync(fullStateOf(t, lr, lr.log.Epoch())); err != nil {
			t.Fatal(err)
		}
	}
	ops, ok := lr.log.Since(st.Applied, 0)
	if !ok {
		t.Fatalf("feed trimmed past follower position %d", st.Applied)
	}
	st, err := f.Apply(Batch{Epoch: lr.log.Epoch(), LogSeq: lr.log.Seq(), Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if st.NeedSync {
		t.Fatal("unexpected NeedSync from in-order ship")
	}
	return st
}

// assertMirrored compares the follower's mirror of id against the
// leader's live cluster on every property a failover must preserve.
func assertMirrored(t *testing.T, lr *leaderRig, f *Follower, id string) {
	t.Helper()
	reg, ok := f.Registry("default")
	if !ok {
		t.Fatal("follower has no default tenant")
	}
	mh, ok := reg.Get(id)
	if !ok {
		t.Fatalf("follower mirror lost cluster %q", id)
	}
	lh, ok := lr.reg.Get(id)
	if !ok {
		t.Fatalf("leader lost cluster %q", id)
	}
	lh.Do(func(want *sim.Cluster) {
		mh.Do(func(got *sim.Cluster) {
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
		})
	})
}

func openFollower(t *testing.T, dataDir string) *Follower {
	t.Helper()
	f, err := OpenFollower(FollowerOptions{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFollowerMirrorsLeaderWorkload(t *testing.T) {
	lr := newLeaderRig(t, 1, 1000)
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)
	defer f.Close()
	ship(t, lr, f) // first contact: full sync of the near-empty store

	id := lr.addCluster(t, 1)
	lr.drive(t, id, []string{"0", "1", "1", "0"}, trace.Fault{Server: "F1", Kind: trace.Crash})
	lr.drive(t, id, []string{"1"}, trace.Fault{Server: "0-Counter", Kind: trace.Byzantine})

	st := ship(t, lr, f)
	if st.Applied != lr.log.Seq() {
		t.Fatalf("applied %d, want %d", st.Applied, lr.log.Seq())
	}
	if st.Lag() != 0 {
		t.Fatalf("lag = %d after full catch-up", st.Lag())
	}
	assertMirrored(t, lr, f, id)

	if ok, reason := f.Ready(); !ok {
		t.Fatalf("caught-up follower not ready: %s", reason)
	}

	// A fresh follower over the same dir rebuilds the same mirror.
	f.Close()
	f2 := openFollower(t, dataDir)
	defer f2.Close()
	assertMirrored(t, lr, f2, id)
	if got := f2.Status().Applied; got != lr.log.Seq() {
		t.Fatalf("reopened follower applied %d, want %d", got, lr.log.Seq())
	}
}

func TestFollowerNotReadyBeforeContact(t *testing.T) {
	f := openFollower(t, t.TempDir())
	defer f.Close()
	if ok, _ := f.Ready(); ok {
		t.Fatal("follower ready before any leader contact")
	}
	// A heartbeat (empty batch) establishes contact and the head.
	st, err := f.Apply(Batch{Epoch: 0, LogSeq: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.NeedSync {
		t.Fatal("empty heartbeat at matching epoch should not demand sync")
	}
	if ok, reason := f.Ready(); !ok {
		t.Fatalf("follower not ready after heartbeat: %s", reason)
	}
}

func TestFollowerLagThresholdGatesReadiness(t *testing.T) {
	f, err := OpenFollower(FollowerOptions{DataDir: t.TempDir(), LagThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Apply(Batch{Epoch: 0, LogSeq: 10}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := f.Ready(); ok {
		t.Fatal("follower 10 records behind with threshold 2 reported ready")
	}
}

// TestFollowerCrashResumeNoDoubleApply: the follower's state file lags
// its store (crash after apply, before persist); the leader re-ships
// from the stale mark and every duplicate op must be skipped exactly.
func TestFollowerCrashResumeNoDoubleApply(t *testing.T) {
	lr := newLeaderRig(t, 1, 1000)
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)
	ship(t, lr, f)

	id := lr.addCluster(t, 1)
	lr.drive(t, id, []string{"0", "1"})
	ship(t, lr, f)
	lr.drive(t, id, []string{"1", "0", "0"}, trace.Fault{Server: "F1", Kind: trace.Crash})
	ship(t, lr, f)
	f.Close()

	// Simulate the crash window: durable tenant state is current, but the
	// resume point rolled back to before the last batch.
	rollBackAppliedTo(t, dataDir, 2)

	f2 := openFollower(t, dataDir)
	defer f2.Close()
	if got := f2.Status().Applied; got != 2 {
		t.Fatalf("reopened applied %d, want rolled-back 2", got)
	}
	st := ship(t, lr, f2) // re-ships ops 3.. which already landed
	if st.Applied != lr.log.Seq() {
		t.Fatalf("applied %d after resume, want %d", st.Applied, lr.log.Seq())
	}
	assertMirrored(t, lr, f2, id)
	assertSameRecords(t, lr.dir, followerDir(dataDir))
}

// TestFollowerTornReplicaTail: power loss mid-append tears the replica's
// WAL tail AND loses the state-file update. Reopen repairs to the last
// complete record; the re-shipped op applies only the missing suffix.
func TestFollowerTornReplicaTail(t *testing.T) {
	lr := newLeaderRig(t, 1, 1000)
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)
	ship(t, lr, f)

	id := lr.addCluster(t, 1)
	lr.drive(t, id, []string{"0", "1"})
	preSeq := lr.log.Seq()
	ship(t, lr, f)
	// One Update → one append op carrying several records.
	lr.drive(t, id, []string{"1", "0", "0"})
	ship(t, lr, f)
	f.Close()

	// Tear the final WAL record on the replica (its trailing newline and
	// a few bytes revert to preallocation zeros) and roll the resume
	// point back to before the batch — the true power-loss picture:
	// fsync'd prefix survives, tail torn.
	tearLastSegmentRecord(t, followerDir(dataDir))
	rollBackAppliedTo(t, dataDir, preSeq)

	f2 := openFollower(t, dataDir)
	defer f2.Close()
	st := ship(t, lr, f2)
	if st.Applied != lr.log.Seq() {
		t.Fatalf("applied %d after torn-tail resume, want %d", st.Applied, lr.log.Seq())
	}
	assertMirrored(t, lr, f2, id)
	assertSameRecords(t, lr.dir, followerDir(dataDir))
}

// TestSnapshotArrivesMidStream: compaction on the leader interleaves
// snapshot ops (generation bumps) with appends; shipping them one op at
// a time must keep the replica identical at the end.
func TestSnapshotArrivesMidStream(t *testing.T) {
	lr := newLeaderRig(t, 1, 2) // compact every 2 journal records
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)
	defer f.Close()
	ship(t, lr, f)

	id := lr.addCluster(t, 1)
	for i := 0; i < 5; i++ {
		lr.drive(t, id, []string{"0"})
		lr.drive(t, id, []string{"1"})
	}
	// Ship in single-op batches to exercise every interleaving point.
	for {
		st := f.Status()
		ops, ok := lr.log.Since(st.Applied, 1)
		if !ok {
			t.Fatal("feed trimmed")
		}
		if len(ops) == 0 {
			break
		}
		st, err := f.Apply(Batch{Epoch: lr.log.Epoch(), LogSeq: lr.log.Seq(), Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		if st.NeedSync {
			t.Fatalf("NeedSync at applied %d", st.Applied)
		}
	}
	assertMirrored(t, lr, f, id)
	assertSameRecords(t, lr.dir, followerDir(dataDir))
}

// TestRemoveThenRecreateSameIDAcrossGenerations: the feed carries a
// remove followed by a fresh put under the same cluster id whose
// predecessor had already bumped generations; the replica must end up
// with only the new incarnation.
func TestRemoveThenRecreateSameIDAcrossGenerations(t *testing.T) {
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)
	defer f.Close()

	specA, _ := json.Marshal(sim.ClusterSpec{
		Machines: []*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}, F: 1, Seed: 1,
	})
	specB, _ := json.Marshal(sim.ClusterSpec{
		Machines: []*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}, F: 1, Seed: 99,
	})
	// Build the reference state the ops describe on a local rig.
	ref, err := sim.NewClusterFromSpec(mustSpec(t, specB))
	if err != nil {
		t.Fatal(err)
	}
	ref.Apply("1")

	// Snapshot payload for the first incarnation's generation bump.
	snapA := []byte(`{"any":"state"}`)
	_ = snapA
	cA, err := sim.NewClusterFromSpec(mustSpec(t, specA))
	if err != nil {
		t.Fatal(err)
	}
	snapPayload := encodeSnapshotFor(t, cA)

	ops := []store.Op{
		{Seq: 1, Tenant: "default", Kind: store.OpPut, ID: "c1", Data: specA},
		{Seq: 2, Tenant: "default", Kind: store.OpAppend, ID: "c1", Recs: [][]byte{walEvent(t, "0")}, PrevWAL: 0},
		{Seq: 3, Tenant: "default", Kind: store.OpSnapshot, ID: "c1", Data: snapPayload}, // generation bump
		{Seq: 4, Tenant: "default", Kind: store.OpAppend, ID: "c1", Recs: [][]byte{walEvent(t, "1")}, PrevWAL: 0},
		{Seq: 5, Tenant: "default", Kind: store.OpRemove, ID: "c1"},
		{Seq: 6, Tenant: "default", Kind: store.OpPut, ID: "c1", Data: specB}, // recreate, same id
		{Seq: 7, Tenant: "default", Kind: store.OpAppend, ID: "c1", Recs: [][]byte{walEvent(t, "1")}, PrevWAL: 0},
	}
	if _, err := f.Apply(Batch{Epoch: 0, LogSeq: 7, Ops: ops}); err != nil {
		t.Fatal(err)
	}
	reg, _ := f.Registry("default")
	mh, ok := reg.Get("c1")
	if !ok {
		t.Fatal("recreated cluster missing")
	}
	mh.Do(func(got *sim.Cluster) {
		if got.Step() != ref.Step() || !reflect.DeepEqual(got.States(), ref.States()) {
			t.Fatalf("recreated cluster state %v@%d, want %v@%d", got.States(), got.Step(), ref.States(), ref.Step())
		}
	})
	// The durable record must be the new incarnation: seed-99 spec, one
	// WAL record, no inherited snapshot.
	recs, err := (&dirOpener{t, followerDir(dataDir)}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "c1" {
		t.Fatalf("replica store holds %d records", len(recs))
	}
	if recs[0].Snapshot != nil {
		t.Fatal("recreated cluster inherited the old generation's snapshot")
	}
	if len(recs[0].WAL) != 1 {
		t.Fatalf("recreated cluster WAL has %d records, want 1", len(recs[0].WAL))
	}
}

func TestFencing(t *testing.T) {
	lr := newLeaderRig(t, 3, 1000)
	dataDir := t.TempDir()
	f := openFollower(t, dataDir)

	id := lr.addCluster(t, 1)
	lr.drive(t, id, []string{"0"})
	// Fresh follower at epoch 0 sees epoch 3: must request a full sync.
	st, err := f.Apply(Batch{Epoch: 3, LogSeq: lr.log.Seq(), Ops: nil})
	if err != nil {
		t.Fatal(err)
	}
	if !st.NeedSync {
		t.Fatal("epoch-ahead batch did not request sync")
	}
	full := fullStateOf(t, lr, 3)
	if _, err := f.FullSync(full); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, lr, f, id)

	// Promote: epoch bumps past everything seen; the deposed leader's
	// shipments bounce.
	epoch, tens, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("promoted epoch %d, want 4", epoch)
	}
	if len(tens) != 1 || tens[0].Name != "default" {
		t.Fatalf("promotion handed over %d tenants", len(tens))
	}
	if _, err := f.Apply(Batch{Epoch: 3, LogSeq: 99}); err != ErrFenced {
		t.Fatalf("deposed leader's batch: err = %v, want ErrFenced", err)
	}
	if _, err := f.FullSync(full); err != ErrFenced {
		t.Fatalf("deposed leader's sync: err = %v, want ErrFenced", err)
	}
	if _, _, err := f.Promote(); err != ErrFenced {
		t.Fatalf("double promote: err = %v, want ErrFenced", err)
	}
	for _, pt := range tens {
		pt.Store.Close()
	}

	// The fence survives a restart: epoch 4 is durable.
	f2 := openFollower(t, dataDir)
	defer f2.Close()
	if _, err := f2.Apply(Batch{Epoch: 3, LogSeq: 99}); err != ErrFenced {
		t.Fatalf("restarted node accepted deposed epoch: %v", err)
	}
}

// TestFullSyncRacingOpsDedupe: a transfer whose Seq was captured before
// racing writes re-ships those writes afterwards; the idempotent apply
// must skip what the transfer already contained.
func TestFullSyncRacingOpsDedupe(t *testing.T) {
	lr := newLeaderRig(t, 1, 1000)
	f := openFollower(t, t.TempDir())
	defer f.Close()

	id := lr.addCluster(t, 1)
	lr.drive(t, id, []string{"0", "1"})
	seqBefore := lr.log.Seq()
	// Racing op: lands after Seq capture but before the store read.
	lr.drive(t, id, []string{"1"})

	full := fullStateOf(t, lr, 1)
	full.Seq = seqBefore // transfer body contains the racing op, Seq does not
	if _, err := f.FullSync(full); err != nil {
		t.Fatal(err)
	}
	// The shipper now re-ships everything past seqBefore — including the
	// racing op the transfer already carried.
	st := ship(t, lr, f)
	if st.Applied != lr.log.Seq() {
		t.Fatalf("applied %d, want %d", st.Applied, lr.log.Seq())
	}
	assertMirrored(t, lr, f, id)
}

func TestNextLeaderEpochMonotonic(t *testing.T) {
	dir := t.TempDir()
	e1, err := NextLeaderEpoch(dir)
	if err != nil || e1 != 1 {
		t.Fatalf("first epoch = %d (%v), want 1", e1, err)
	}
	e2, err := NextLeaderEpoch(dir)
	if err != nil || e2 != 2 {
		t.Fatalf("second epoch = %d (%v), want 2", e2, err)
	}
	// A node that followed epoch 9 and is rebooted as leader must beat it.
	if err := persistFollowerState(dir, followerState{Epoch: 9, Applied: 42}); err != nil {
		t.Fatal(err)
	}
	e3, err := NextLeaderEpoch(dir)
	if err != nil || e3 != 10 {
		t.Fatalf("epoch after following 9 = %d (%v), want 10", e3, err)
	}
}

// --- helpers --------------------------------------------------------------

func followerDir(dataDir string) string { return filepath.Join(dataDir, "default") }

// tearLastSegmentRecord zeroes the last three bytes of the final record
// in a store's newest WAL segment, newline included.
func tearLastSegmentRecord(t *testing.T, root string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(root, ".walseg", "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	last, lastN := "", -1
	for _, p := range segs {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.log", &n); err == nil && n > lastN {
			last, lastN = p, n
		}
	}
	if last == "" {
		t.Fatalf("no WAL segment under %s", root)
	}
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	end := len(bytes.TrimRight(raw, "\x00"))
	if end < 3 || raw[end-1] != '\n' {
		t.Fatalf("segment %s does not end in a complete record", last)
	}
	copy(raw[end-3:end], []byte{0, 0, 0})
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rollBackAppliedTo rewrites the follower state file's applied mark,
// simulating a crash after ops landed but before the state persisted.
func rollBackAppliedTo(t *testing.T, dataDir string, applied uint64) {
	t.Helper()
	st, err := loadFollowerState(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	st.Applied = applied
	if err := persistFollowerState(dataDir, st); err != nil {
		t.Fatal(err)
	}
}

// assertSameRecords compares the leader's and replica's durable tenant
// records field by field (generation numbering may differ after
// idempotent snapshot re-application; content must not).
func assertSameRecords(t *testing.T, leader *store.Dir, replicaRoot string) {
	t.Helper()
	want, err := leader.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&dirOpener{t, replicaRoot}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replica holds %d records, leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("record %d id %q vs %q", i, got[i].ID, want[i].ID)
		}
		if !reflect.DeepEqual(got[i].Spec, want[i].Spec) {
			t.Fatalf("record %q spec diverges", want[i].ID)
		}
		if !reflect.DeepEqual(got[i].Snapshot, want[i].Snapshot) {
			t.Fatalf("record %q snapshot diverges", want[i].ID)
		}
		if !reflect.DeepEqual(got[i].WAL, want[i].WAL) {
			t.Fatalf("record %q WAL diverges: %d vs %d records", want[i].ID, len(got[i].WAL), len(want[i].WAL))
		}
	}
}

// dirOpener opens a throwaway Dir view for assertions without holding
// file handles past the load.
type dirOpener struct {
	t    *testing.T
	root string
}

func (d *dirOpener) load() ([]store.Record, error) {
	st, err := store.NewDir(d.root)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Load()
}

func fullStateOf(t *testing.T, lr *leaderRig, epoch uint64) FullState {
	t.Helper()
	recs, err := lr.dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	return FullState{
		Epoch:   epoch,
		Seq:     lr.log.Seq(),
		Tenants: []TenantState{{Name: "default", Clusters: recs}},
	}
}

func mustSpec(t *testing.T, raw []byte) *sim.ClusterSpec {
	t.Helper()
	var spec sim.ClusterSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// walEvent produces the journal record an applied event writes, by
// running the event through a throwaway stored cluster and reading the
// journal back.
func walEvent(t *testing.T, event string) []byte {
	t.Helper()
	st := store.NewMem()
	reg := sim.NewStoredRegistry(0, st, 1000)
	c, err := sim.NewCluster([]*dfsm.Machine{machines.ZeroCounter(), machines.OneCounter()}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := reg.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := reg.Get(id)
	if err := h.Update(func(tx *sim.Tx) error { tx.ApplyAll([]string{event}); return nil }); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id && len(rec.WAL) > 0 {
			return rec.WAL[len(rec.WAL)-1]
		}
	}
	t.Fatal("no journal record produced")
	return nil
}

// encodeSnapshotFor captures a cluster's snapshot payload the same way a
// leader-side compaction would, via a stored registry compacting every
// record.
func encodeSnapshotFor(t *testing.T, c *sim.Cluster) []byte {
	t.Helper()
	st := store.NewMem()
	reg := sim.NewStoredRegistry(0, st, 1)
	id, err := reg.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := reg.Get(id)
	if err := h.Update(func(tx *sim.Tx) error { tx.ApplyAll([]string{"0"}); return nil }); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id && rec.Snapshot != nil {
			return rec.Snapshot
		}
	}
	t.Fatal("no snapshot produced")
	return nil
}

var _ = fmt.Sprintf // keep fmt for future debugging helpers
