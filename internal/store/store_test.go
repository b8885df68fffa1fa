package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendEvents stages recs on s and waits for their commit.
func appendEvents(s Backend, id string, recs [][]byte) error {
	wait, err := s.StageEvents(id, recs, nil)
	if err != nil {
		return err
	}
	return wait()
}

func backends(t *testing.T) map[string]func() Backend {
	return map[string]func() Backend{
		"mem": func() Backend { return NewMem() },
		"dir": func() Backend {
			d, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		// The same store with segments and batches cut tiny, so the
		// contract also runs across segment rollover and early flushes.
		"group": func() Backend {
			d, err := NewDirWith(t.TempDir(), DirOptions{SegmentBytes: 64, MaxBatchBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func rec(s string) []byte { return []byte(fmt.Sprintf("{%q:%q}", "op", s)) }

func TestBackendContract(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()

			// Empty store loads empty.
			if recs, err := s.Load(); err != nil || len(recs) != 0 {
				t.Fatalf("empty Load = %v, %v", recs, err)
			}

			if err := s.Put("c1", []byte(`{"f":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("c1", []byte(`{"f":2}`)); err == nil {
				t.Fatal("double Put accepted")
			}
			if err := s.Put("../evil", []byte(`{}`)); err == nil {
				t.Fatal("path-traversal id accepted")
			}
			if err := appendEvents(s, "ghost", [][]byte{rec("a")}); err == nil {
				t.Fatal("append to unknown cluster accepted")
			}

			if err := appendEvents(s, "c1", [][]byte{rec("a"), rec("b")}); err != nil {
				t.Fatal(err)
			}
			if err := appendEvents(s, "c1", [][]byte{rec("c")}); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("c2", []byte(`{"f":9}`)); err != nil {
				t.Fatal(err)
			}
			recs, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[0].ID != "c1" || recs[1].ID != "c2" {
				t.Fatalf("Load ids = %v", recs)
			}
			if !bytes.Equal(recs[0].Spec, []byte(`{"f":1}`)) {
				t.Fatalf("spec = %s", recs[0].Spec)
			}
			if recs[0].Snapshot != nil {
				t.Fatal("snapshot before any Snapshot call")
			}
			if len(recs[0].WAL) != 3 || !bytes.Equal(recs[0].WAL[2], rec("c")) {
				t.Fatalf("WAL = %q", recs[0].WAL)
			}

			// Snapshot compacts: WAL resets, later appends start fresh.
			if err := s.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := appendEvents(s, "c1", [][]byte{rec("d")}); err != nil {
				t.Fatal(err)
			}
			recs, err = s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recs[0].Snapshot, []byte(`{"snap":1}`)) {
				t.Fatalf("snapshot = %s", recs[0].Snapshot)
			}
			if len(recs[0].WAL) != 1 || !bytes.Equal(recs[0].WAL[0], rec("d")) {
				t.Fatalf("WAL after snapshot = %q", recs[0].WAL)
			}

			// A second snapshot supersedes the first.
			if err := s.Snapshot("c1", []byte(`{"snap":2}`)); err != nil {
				t.Fatal(err)
			}
			recs, _ = s.Load()
			if !bytes.Equal(recs[0].Snapshot, []byte(`{"snap":2}`)) || len(recs[0].WAL) != 0 {
				t.Fatalf("after second snapshot: %s / %q", recs[0].Snapshot, recs[0].WAL)
			}

			// Remove forgets everything; removing again is a no-op.
			if err := s.Remove("c1"); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove("c1"); err != nil {
				t.Fatalf("second Remove: %v", err)
			}
			recs, _ = s.Load()
			if len(recs) != 1 || recs[0].ID != "c2" {
				t.Fatalf("after Remove: %v", recs)
			}

			// Recreating a removed id starts from nothing: no record,
			// snapshot or generation of the old cluster carries over.
			if err := s.Put("c1", []byte(`{"f":3}`)); err != nil {
				t.Fatal(err)
			}
			if err := appendEvents(s, "c1", [][]byte{rec("e")}); err != nil {
				t.Fatal(err)
			}
			recs, _ = s.Load()
			if len(recs) != 2 || !bytes.Equal(recs[0].Spec, []byte(`{"f":3}`)) || recs[0].Snapshot != nil ||
				len(recs[0].WAL) != 1 || !bytes.Equal(recs[0].WAL[0], rec("e")) {
				t.Fatalf("recreated c1: %+v", recs)
			}
		})
	}
}

// TestDirSurvivesReopen: a fresh Dir over the same root sees everything a
// previous instance persisted — the restart path.
func TestDirSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d1.AppendEvents("c1", [][]byte{rec("a")}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d1.AppendEvents("c1", [][]byte{rec("b")}); err != nil {
		t.Fatal(err)
	}
	// No Close: the dead process didn't close anything either.

	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Snapshot, []byte(`{"snap":1}`)) ||
		len(recs[0].WAL) != 1 || !bytes.Equal(recs[0].WAL[0], rec("b")) {
		t.Fatalf("reopened state: %+v", recs)
	}
	// The reopened store appends to the right generation.
	if err := d2.AppendEvents("c1", [][]byte{rec("c")}); err != nil {
		t.Fatal(err)
	}
	recs, _ = d2.Load()
	if len(recs[0].WAL) != 2 {
		t.Fatalf("WAL after reopen+append = %q", recs[0].WAL)
	}
}

// TestDirRecreateAfterReopen: a removed cluster's records outlive its
// directory in the shared segments, also across a restart; a cluster
// recreated under the same id after the restart must not replay them.
func TestDirRecreateAfterReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c1", "c2"} {
		if err := d1.Put(id, []byte(`{"f":1}`)); err != nil {
			t.Fatal(err)
		}
		// c2's record keeps the shared segment alive after c1's Remove.
		if err := d1.AppendEvents(id, [][]byte{rec("old-" + id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Put("c1", []byte(`{"f":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := d2.AppendEvents("c1", [][]byte{rec("new")}); err != nil {
		t.Fatal(err)
	}
	check := func(d *Dir) {
		t.Helper()
		recs, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || len(recs[0].WAL) != 1 || !bytes.Equal(recs[0].WAL[0], rec("new")) ||
			len(recs[1].WAL) != 1 {
			t.Fatalf("recreated c1 after reopen: %+v", recs)
		}
	}
	check(d2)
	d2.Close()
	check(mustOpen(t, root))
}

// TestDirRecreateWhileAppendQueued: an append staged before its cluster
// was removed still flushes afterwards; a cluster recreated under the
// same id in between must not replay it.
func TestDirRecreateWhileAppendQueued(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	wait, err := d.StageEvents("c1", [][]byte{rec("old")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("c1", []byte(`{"f":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil { // the stager leads: its flush runs here
		t.Fatal(err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("new")}); err != nil {
		t.Fatal(err)
	}
	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].WAL) != 1 || !bytes.Equal(recs[0].WAL[0], rec("new")) {
		t.Fatalf("recreated c1 = %+v", recs)
	}
}

func mustOpen(t *testing.T, root string) *Dir {
	t.Helper()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// writeLegacyWAL hand-writes a per-cluster wal-0.log, the file older
// releases appended to, under an existing cluster directory.
func writeLegacyWAL(t *testing.T, root, id, data string) string {
	t.Helper()
	path := filepath.Join(root, id, "wal-0.log")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDirTornTail: a crash mid-append leaves a torn final record in a
// legacy WAL, which Load drops; torn bytes anywhere else are corruption
// and an error.
func TestDirTornTail(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("c1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	wal := writeLegacyWAL(t, root, "c1", string(rec("a"))+"\n"+string(rec("b"))+"\n"+`{"op":"tor`)

	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].WAL) != 2 {
		t.Fatalf("torn tail not dropped: %q", recs[0].WAL)
	}

	// Same torn bytes followed by a valid record: corruption, not a tail.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\n" + string(rec("c")) + "\n")
	f.Close()
	if _, err := d.Load(); err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}

// TestDirAppendAfterTornTail: appends never touch a legacy WAL, so its
// torn tail — bytes without a newline, or a newline-terminated garbage
// sector — stays a tolerated tail after new records are appended,
// instead of turning into mid-file corruption that fails every Load.
func TestDirAppendAfterTornTail(t *testing.T) {
	for name, tail := range map[string]string{
		"no-newline":     `{"op":"tor`,
		"garbage-sector": "{\"op\":\"gar\x00bage\n",
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			d1, err := NewDir(root)
			if err != nil {
				t.Fatal(err)
			}
			if err := d1.Put("c1", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			d1.Close()
			legacy := string(rec("a")) + "\n" + tail
			wal := writeLegacyWAL(t, root, "c1", legacy)

			for i, e := range []string{"b", "c"} {
				// A fresh store per append: each reopen seals the
				// previous segment and starts a new one.
				d, err := NewDir(root)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.AppendEvents("c1", [][]byte{rec(e)}); err != nil {
					t.Fatal(err)
				}
				recs, err := d.Load()
				d.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(recs[0].WAL) != i+2 || !bytes.Equal(recs[0].WAL[0], rec("a")) ||
					!bytes.Equal(recs[0].WAL[i+1], rec(e)) {
					t.Fatalf("WAL after append %d = %q", i+1, recs[0].WAL)
				}
			}
			if data, err := os.ReadFile(wal); err != nil || string(data) != legacy {
				t.Fatalf("legacy WAL changed: %q, %v", data, err)
			}
		})
	}
}

// TestDirPutReclaimsTornDir: a cluster directory without a committed
// spec (crash mid-Put) does not block the id from being minted again.
func TestDirPutReclaimsTornDir(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "c1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "c1", "spec.json.tmp"), []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatalf("Put over torn dir: %v", err)
	}
	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Spec, []byte(`{"f":1}`)) {
		t.Fatalf("reclaimed Put not loaded: %+v", recs)
	}
}

// TestDirSnapshotCrashWindows: the generation scheme keeps either the
// old state or the new one, never a mix.
func TestDirSnapshotCrashWindows(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("c1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("a")}); err != nil {
		t.Fatal(err)
	}

	// Crash before the snapshot rename committed (older releases also
	// pre-created the next generation's empty WAL): the old generation
	// and its records must win.
	dir := filepath.Join(root, "c1")
	if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot-1.json.tmp"), []byte(`{"snap":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Snapshot != nil || len(recs[0].WAL) != 1 {
		t.Fatalf("uncommitted snapshot visible: %+v", recs[0])
	}

	// Commit point: once snapshot-1.json exists, the new generation wins
	// even though the old generation's record still lingers in a segment.
	if err := os.Rename(filepath.Join(dir, "snapshot-1.json.tmp"), filepath.Join(dir, "snapshot-1.json")); err != nil {
		t.Fatal(err)
	}
	recs, err = d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recs[0].Snapshot, []byte(`{"snap":1}`)) || len(recs[0].WAL) != 0 {
		t.Fatalf("committed snapshot not picked: %+v", recs[0])
	}
}

// TestDirSkipsTornPut: a cluster directory without a committed spec (the
// process died inside Put) is not a cluster.
func TestDirSkipsTornPut(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "c7"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "c7", "spec.json.tmp"), []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("torn Put loaded: %+v", recs)
	}
}
