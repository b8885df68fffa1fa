package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func newGroupDir(t *testing.T, opts DirOptions) (*Dir, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := NewDirWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

// TestGroupStageCoalesces: stages parked before the first wait ride one
// batch — one flush, one fsync — because the elected leader only flushes
// inside its wait. This is the deterministic version of what concurrency
// produces probabilistically.
func TestGroupStageCoalesces(t *testing.T) {
	var flushes []FlushStats
	var mu sync.Mutex
	d, _ := newGroupDir(t, DirOptions{OnFlush: func(fs FlushStats) {
		mu.Lock()
		flushes = append(flushes, fs)
		mu.Unlock()
	}})
	const clusters, perCluster = 4, 8
	for c := 0; c < clusters; c++ {
		if err := d.Put(fmt.Sprintf("c%d", c+1), []byte(`{"f":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	base := d.WALStats()
	var waits []func() error
	for i := 0; i < clusters*perCluster; i++ {
		id := fmt.Sprintf("c%d", i%clusters+1)
		w, err := d.StageEvents(id, [][]byte{rec(fmt.Sprintf("e%d", i))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	for _, w := range waits {
		if err := w(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.WALStats()
	if got := st.Flushes - base.Flushes; got != 1 {
		t.Fatalf("32 staged appends took %d flushes, want 1", got)
	}
	if got := st.Records - base.Records; got != clusters*perCluster {
		t.Fatalf("records = %d, want %d", got, clusters*perCluster)
	}
	// One fdatasync for the batch plus one full fsync for the segment
	// preallocation.
	if got := st.Fsyncs - base.Fsyncs; got != 2 {
		t.Fatalf("fsyncs = %d, want 2 (batch + preallocation)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushes) != 1 || flushes[0].Appends != clusters*perCluster {
		t.Fatalf("OnFlush saw %+v, want one flush of %d appends", flushes, clusters*perCluster)
	}
	recs, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if len(r.WAL) != perCluster {
			t.Fatalf("cluster %s replays %d records, want %d", r.ID, len(r.WAL), perCluster)
		}
	}
}

// TestGroupReopen: a reopened store replays exactly the committed
// records across snapshots (generation supersession), and imports a
// legacy per-cluster wal-0.log one way: its records, torn tail dropped,
// replay as a frozen prefix in front of the segment records until the
// cluster's next Snapshot retires the file.
func TestGroupReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Dir {
		t.Helper()
		d, err := NewDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	wal := func(d *Dir, id string) []string {
		t.Helper()
		recs, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.ID == id {
				var out []string
				for _, w := range r.WAL {
					out = append(out, string(w))
				}
				return out
			}
		}
		t.Fatalf("cluster %s missing from Load", id)
		return nil
	}
	recs := func(es ...string) []string {
		var out []string
		for _, e := range es {
			out = append(out, string(rec(e)))
		}
		return out
	}

	d := open()
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("c2", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// The file an older release appended c1's records to, torn mid-record.
	legacy := string(rec("a")) + "\n" + string(rec("b")) + "\n" + `{"op":"tor`
	legacyPath := writeLegacyWAL(t, dir, "c1", legacy)

	d = open()
	if got := wal(d, "c1"); !strEq(got, recs("a", "b")) {
		t.Fatalf("c1 legacy import: %v", got)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("c")}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvents("c2", [][]byte{rec("x")}); err != nil {
		t.Fatal(err)
	}
	// Snapshot c2: its segment records are superseded and must not
	// replay on any future open.
	if err := d.Snapshot("c2", []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvents("c2", [][]byte{rec("y")}); err != nil {
		t.Fatal(err)
	}
	if got := wal(d, "c1"); !strEq(got, recs("a", "b", "c")) {
		t.Fatalf("c1 prefix+segment: %v", got)
	}
	d.Close()

	d = open()
	if got := wal(d, "c1"); !strEq(got, recs("a", "b", "c")) {
		t.Fatalf("c1 after reopen: %v", got)
	}
	if got := wal(d, "c2"); !strEq(got, recs("y")) {
		t.Fatalf("c2 after reopen (snapshot must supersede): %v", got)
	}
	if data, err := os.ReadFile(legacyPath); err != nil || string(data) != legacy {
		t.Fatalf("legacy WAL changed before its snapshot: %q, %v", data, err)
	}
	// The snapshot holds the full state, so the legacy file is retired.
	if err := d.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacyPath); !os.IsNotExist(err) {
		t.Fatalf("legacy WAL survived the snapshot: err=%v", err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("d")}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d = open()
	defer d.Close()
	if got := wal(d, "c1"); !strEq(got, recs("d")) {
		t.Fatalf("c1 after snapshot and reopen: %v", got)
	}
	if got := wal(d, "c2"); !strEq(got, recs("y")) {
		t.Fatalf("c2 after second reopen: %v", got)
	}
}

// TestDirRefusesInterruptedMigration: a .walseg.mig directory is what an
// older release left when it crashed while folding segments back into
// per-cluster WALs. Its segments hold acknowledged records this store
// cannot read, so the open fails, names the directory, and leaves it
// as it was.
func TestDirRefusesInterruptedMigration(t *testing.T) {
	dir := t.TempDir()
	mig := filepath.Join(dir, ".walseg.mig")
	if err := os.Mkdir(mig, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(mig, segName(0))
	line := `{"c":"c1","g":0,"r":{"op":"a"}}` + "\n"
	if err := os.WriteFile(seg, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDir(dir)
	if err == nil {
		d.Close()
		t.Fatal("open over an interrupted migration succeeded")
	}
	if !strings.Contains(err.Error(), mig) {
		t.Fatalf("error does not name %s: %v", mig, err)
	}
	if data, err := os.ReadFile(seg); err != nil || string(data) != line {
		t.Fatalf("claimed segment disturbed: %q, %v", data, err)
	}
}

// TestDirCreatesSegmentDirOnFirstAppend: the segment directory appears
// with the first flush, so a store that never appends — the fusion
// cache's — leaves no empty .walseg behind.
func TestDirCreatesSegmentDirOnFirstAppend(t *testing.T) {
	d, dir := newGroupDir(t, DirOptions{})
	defer d.Close()
	segDir := filepath.Join(dir, groupDirName)
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCache("ab", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segDir); !os.IsNotExist(err) {
		t.Fatalf("segment dir exists before any append: err=%v", err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(segDir, segName(0))); err != nil {
		t.Fatalf("first append made no segment: %v", err)
	}
}

func strEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGroupSegmentTornTail: a crash leaves segment tails in exactly two
// tolerable shapes — bytes with no newline, or one newline-terminated
// unparsable line followed by nothing but preallocation zeros — and one
// intolerable one: garbage with live data after it.
func TestGroupSegmentTornTail(t *testing.T) {
	mk := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		d, err := NewDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := d.AppendEvents("c1", [][]byte{rec("a"), rec("b")}); err != nil {
			t.Fatal(err)
		}
		d.Close()
		return dir, filepath.Join(dir, groupDirName, segName(0))
	}
	load := func(t *testing.T, dir string) ([]Record, error) {
		d, err := NewDir(dir)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		return d.Load()
	}
	append_ := func(t *testing.T, path string, b []byte) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	t.Run("no-newline", func(t *testing.T) {
		dir, seg := mk(t)
		append_(t, seg, []byte(`{"c":"c1","g":0,"r":{"op":"to`))
		recs, err := load(t, dir)
		if err != nil || len(recs) != 1 || len(recs[0].WAL) != 2 {
			t.Fatalf("torn no-newline tail: recs=%v err=%v", recs, err)
		}
	})
	t.Run("invalid-line-then-zeros", func(t *testing.T) {
		dir, seg := mk(t)
		append_(t, seg, append([]byte("garbage-sector\n"), make([]byte, 64)...))
		recs, err := load(t, dir)
		if err != nil || len(recs) != 1 || len(recs[0].WAL) != 2 {
			t.Fatalf("torn invalid final line: recs=%v err=%v", recs, err)
		}
	})
	t.Run("garbage-mid-file", func(t *testing.T) {
		dir, seg := mk(t)
		bad := []byte("garbage\n")
		bad = append(bad, []byte(`{"c":"c1","g":0,"r":{"op":"z"}}`)...)
		bad = append(bad, '\n')
		append_(t, seg, bad)
		if _, err := load(t, dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("mid-file garbage tolerated: err=%v", err)
		}
	})
}

// TestGroupPoisonHealsOnSnapshot: a failed batch poisons its clusters —
// further appends are refused, because the handle-level dirty flag is
// set without the handle lock held and a racing append could otherwise
// land beyond the gap — and a successful snapshot (full current state)
// heals.
func TestGroupPoisonHealsOnSnapshot(t *testing.T) {
	d, _ := newGroupDir(t, DirOptions{})
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("a")}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the active segment's fd so the next flush's write fails.
	d.group.mu.Lock()
	d.group.seg.f.Close()
	d.group.mu.Unlock()
	if err := d.AppendEvents("c1", [][]byte{rec("b")}); err == nil {
		t.Fatal("append over a closed segment fd succeeded")
	}
	if err := d.AppendEvents("c1", [][]byte{rec("c")}); err == nil ||
		!strings.Contains(err.Error(), "unhealed") {
		t.Fatalf("poisoned cluster accepted an append: err=%v", err)
	}
	if err := d.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
		t.Fatalf("healing snapshot: %v", err)
	}
	if err := d.AppendEvents("c1", [][]byte{rec("d")}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	recs, err := d.Load()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Load = %v, %v", recs, err)
	}
	if len(recs[0].WAL) != 1 || string(recs[0].WAL[0]) != string(rec("d")) {
		t.Fatalf("post-heal WAL = %q", recs[0].WAL)
	}
}

// TestGroupSegmentGC: a snapshot that supersedes every record in a
// sealed segment deletes it; the active segment is never collected.
func TestGroupSegmentGC(t *testing.T) {
	// SegmentBytes 1: every batch overflows, so each flush rolls into its
	// own exactly-sized segment and the previous one seals immediately.
	d, dir := newGroupDir(t, DirOptions{SegmentBytes: 1})
	if err := d.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"a", "b", "c"} {
		if err := d.AppendEvents("c1", [][]byte{rec(e)}); err != nil {
			t.Fatal(err)
		}
	}
	segs := func() []string {
		t.Helper()
		ents, err := os.ReadDir(filepath.Join(dir, groupDirName))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	if got := segs(); len(got) != 3 {
		t.Fatalf("segments before snapshot: %v, want 3", got)
	}
	if err := d.Snapshot("c1", []byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	// Both sealed segments held only c1 generation-0 records; the
	// snapshot moved c1 to generation 1, so they are garbage. The active
	// one stays (it is still the append target).
	if got := segs(); len(got) != 1 || got[0] != segName(2) {
		t.Fatalf("segments after snapshot: %v, want [%s]", got, segName(2))
	}
	if err := d.AppendEvents("c1", [][]byte{rec("d")}); err != nil {
		t.Fatal(err)
	}
	recs, err := d.Load()
	if err != nil || len(recs) != 1 || len(recs[0].WAL) != 1 {
		t.Fatalf("post-GC Load = %+v, %v", recs, err)
	}
}

// TestSyncDirErrors pins the satellite fix: directory-fsync failures are
// split into "this filesystem cannot sync directories" (tolerated — the
// historical behavior, and what virtiofs/FUSE return) and real I/O
// errors (propagated: swallowing one acknowledges a commit the disk may
// not hold).
func TestSyncDirErrors(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a healthy directory: %v", err)
	}
	for _, tc := range []struct {
		err       error
		ignorable bool
	}{
		{syscall.EINVAL, true},
		{syscall.ENOTSUP, true},
		{&os.PathError{Op: "fsync", Path: "x", Err: syscall.EINVAL}, true},
		{syscall.EIO, false},
		{syscall.EBADF, false},
		{&os.PathError{Op: "fsync", Path: "x", Err: syscall.EIO}, false},
	} {
		if got := ignorableSyncErr(tc.err); got != tc.ignorable {
			t.Errorf("ignorableSyncErr(%v) = %v, want %v", tc.err, got, tc.ignorable)
		}
	}
}

// --- crash window ----------------------------------------------------------

const crashDirEnv = "STORE_GROUP_CRASH_DIR"

// TestGroupCrashChild is the subprocess body of TestGroupCrashRecovery:
// it floods a group store from concurrent writers, printing "ack <id>
// <n>" only after AppendEvents returns (i.e. after the record's batch
// fsync), until the parent kills it with SIGKILL. It is a no-op when run
// as part of the normal suite.
func TestGroupCrashChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-child helper; driven by TestGroupCrashRecovery")
	}
	d, err := NewDir(dir)
	if err != nil {
		fmt.Printf("child-error %v\n", err)
		os.Exit(1)
	}
	const writers = 4
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("c%d", w+1)
		if err := d.Put(id, []byte(`{"f":1}`)); err != nil {
			fmt.Printf("child-error %v\n", err)
			os.Exit(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				if err := d.AppendEvents(id, [][]byte{[]byte(fmt.Sprintf(`{"n":%d}`, n))}); err != nil {
					fmt.Printf("child-error %s: %v\n", id, err)
					os.Exit(1)
				}
				outMu.Lock()
				fmt.Printf("ack %s %d\n", id, n)
				outMu.Unlock()
			}
		}()
	}
	wg.Wait() // unreachable: SIGKILL ends the process mid-append
}

// TestGroupCrashRecovery is the store's crash-window guarantee: kill -9
// mid-batch under concurrent appenders, reopen, and every acknowledged
// record replays with nothing torn.
func TestGroupCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestGroupCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]int)
	var ackMu sync.Mutex
	firstAck := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			var id string
			var n int
			if _, err := fmt.Sscanf(sc.Text(), "ack %s %d", &id, &n); err != nil {
				continue // test-framework chatter
			}
			ackMu.Lock()
			if n > acked[id] {
				acked[id] = n
			}
			ackMu.Unlock()
			if first {
				first = false
				close(firstAck)
			}
		}
	}()
	select {
	case <-firstAck:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		t.Fatal("child produced no acknowledged append within 30s")
	}
	time.Sleep(300 * time.Millisecond) // let the writers race mid-batch
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: non-zero by design
	<-scanDone
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no acks parsed")
	}

	t.Run("group-reopen", func(t *testing.T) {
		d, err := NewDir(dir)
		if err != nil {
			t.Fatalf("reopen after kill -9: %v", err)
		}
		defer d.Close()
		recs, err := d.Load()
		if err != nil {
			t.Fatalf("Load after kill -9: %v", err)
		}
		byID := make(map[string][][]byte)
		for _, r := range recs {
			byID[r.ID] = r.WAL
		}
		for id, want := range acked {
			wal := byID[id]
			// Every record parses and the sequence is contiguous from 1:
			// nothing torn, nothing reordered, nothing fabricated.
			for i, raw := range wal {
				var v struct {
					N int `json:"n"`
				}
				if err := json.Unmarshal(raw, &v); err != nil || v.N != i+1 {
					t.Fatalf("%s record %d = %q (parse err %v), want n=%d", id, i, raw, err, i+1)
				}
			}
			// Durable ⊇ acknowledged: a record can be fsync'd with its ack
			// unprinted at kill time, never the reverse.
			if len(wal) < want {
				t.Fatalf("%s lost acknowledged records: %d durable < %d acked", id, len(wal), want)
			}
		}
	})
}
