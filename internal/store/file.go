package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Dir is the file-backed Store: one directory per cluster under a root,
// plus one write-ahead log shared by all of them:
//
//	<root>/<id>/spec.json          immutable creation record
//	<root>/<id>/snapshot-<g>.json  compaction snapshot of generation g
//	<root>/<id>/base-<g>           first generation of a recreated id
//	<root>/.walseg/seg-<n>.log     shared WAL segments (see group.go)
//
// Durability discipline: spec and snapshot files are written to a .tmp
// sibling, fsync'd, renamed into place, and the directory fsync'd — a
// reader never observes a partial file. WAL appends stage on the group
// commit batcher in group.go, which writes every cluster's records into
// the shared segments and acknowledges an append only after the fsync
// covering it, so an acknowledged append survives SIGKILL; a torn final
// record (crash mid-write) is dropped at the next open.
//
// Snapshots advance a generation counter instead of truncating in place:
// renaming snapshot-<g+1>.json into existence is the commit point, and it
// supersedes every segment record the cluster wrote under an older
// generation; the old generation's files are then deleted best-effort. A
// crash anywhere leaves either the old generation fully intact (commit
// rename never happened) or the new one complete — Load always picks the
// highest generation with a committed snapshot, so a stale record can
// never be replayed onto a newer snapshot. The records of a removed
// cluster stay in the segments until they are collected, so a Put that
// recreates its id starts the new cluster past their generations and
// records that start in an empty base-<g> file.
//
// Stores written by older releases may also hold a per-cluster
// <root>/<id>/wal-<g>.log. Load replays it, with readWAL's torn-tail
// rule, as a frozen prefix in front of the cluster's segment records;
// nothing appends to it, and the cluster's next Snapshot deletes it.
type Dir struct {
	root string
	opts DirOptions

	mu sync.Mutex // held by every method that touches cluster or cache files; never by StageEvents

	group *groupWAL // the shared segment log and its commit batcher

	fsyncs  atomic.Int64
	flushes atomic.Int64
	records atomic.Int64
}

// NewDir opens (creating if needed) a file store rooted at dir with the
// default batching options.
func NewDir(dir string) (*Dir, error) { return NewDirWith(dir, DirOptions{}) }

// NewDirWith opens a file store with explicit options.
//
// It refuses a root holding <root>/.walseg.mig: older releases could fold
// the segments back into per-cluster WALs and claimed them by renaming
// .walseg to that name, so a crash mid-fold left acknowledged records
// there that this store cannot read. The directory is left untouched for
// the release that started the fold to finish.
func NewDirWith(dir string, opts DirOptions) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	mig := filepath.Join(dir, migrateDirName)
	if _, err := os.Stat(mig); err == nil {
		return nil, fmt.Errorf("store: %s holds WAL segments from an interrupted mode migration; reopen it once with the release that started it", mig)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	s := &Dir{root: dir, opts: opts}
	g, err := openGroup(s)
	if err != nil {
		return nil, err
	}
	s.group = g
	return s, nil
}

// WALStats returns cumulative WAL write counters.
func (s *Dir) WALStats() WALStats {
	return WALStats{Fsyncs: s.fsyncs.Load(), Flushes: s.flushes.Load(), Records: s.records.Load()}
}

// Root returns the directory the store persists under.
func (s *Dir) Root() string { return s.root }

func (s *Dir) dir(id string) string { return filepath.Join(s.root, id) }

func snapName(gen int) string { return fmt.Sprintf("snapshot-%d.json", gen) }
func baseName(gen int) string { return fmt.Sprintf("base-%d", gen) }
func walName(gen int) string  { return fmt.Sprintf("wal-%d.log", gen) }

// writeFileAtomic writes data to path via tmp-write, fsync, rename,
// directory fsync — the rename is the commit point.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// AtomicWrite durably writes data to path with the same tmp-write,
// fsync, rename, directory-fsync discipline the store's own spec and
// snapshot files use. The replication plane persists its epoch and
// applied-sequence markers with it.
func AtomicWrite(path string, data []byte) error { return writeFileAtomic(path, data) }

// syncDir fsyncs a directory so a just-committed rename or create survives
// power loss. Filesystems that cannot sync directories at all
// (ENOTSUP/EINVAL from virtiofs, FUSE, and friends) are tolerated — the
// rename is still ordered by their own journal — but a real I/O failure
// propagates: swallowing it would acknowledge a commit the disk may not
// hold.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !ignorableSyncErr(err) {
		return fmt.Errorf("store: syncing directory %s: %w", dir, err)
	}
	return nil
}

// curGen returns the cluster's live generation: the highest g with a
// committed snapshot-<g>.json or base-<g> marker, or 0 when there is
// neither.
func curGen(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	gen := 0
	for _, e := range entries {
		var g int
		name := e.Name()
		if _, err := fmt.Sscanf(name, "snapshot-%d.json", &g); err != nil || name != snapName(g) {
			if _, err := fmt.Sscanf(name, "base-%d", &g); err != nil || name != baseName(g) {
				continue
			}
		}
		if g > gen {
			gen = g
		}
	}
	return gen, nil
}

// Put records a new cluster: its directory and spec, durably on disk
// before returning.
func (s *Dir) Put(id string, spec []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.dir(id)
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err == nil {
		return fmt.Errorf("store: cluster %q already exists", id)
	}
	// A directory without a committed spec is a torn Put from a dead
	// process: that create was never acknowledged (and Load skips it),
	// so the id is free to reclaim — without this, the orphan would make
	// the id unusable forever once the restarted registry re-mints it.
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: reclaiming torn cluster dir %q: %w", id, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Records of a removed cluster with this id may still be in the
	// segments: start past their generations so none replays into the
	// new cluster. The spec rename below commits the marker with it.
	base := s.group.freshGen(id)
	if base > 0 {
		if err := writeFileAtomic(filepath.Join(dir, baseName(base)), nil); err != nil {
			return fmt.Errorf("store: writing base generation for %q: %w", id, err)
		}
	}
	if err := writeFileAtomic(filepath.Join(dir, "spec.json"), spec); err != nil {
		return fmt.Errorf("store: writing spec for %q: %w", id, err)
	}
	if err := syncDir(s.root); err != nil {
		return err
	}
	s.group.committed(id, base)
	return nil
}

// AppendEvents durably appends WAL records and returns once they are
// fsync'd: the call stages on the shared commit batcher and parks until
// its batch's single fsync covers it.
func (s *Dir) AppendEvents(id string, recs [][]byte) error {
	wait, err := s.StageEvents(id, recs, nil)
	if err != nil {
		return err
	}
	return wait()
}

func noopWait() error { return nil }

// StageEvents starts a durable append and returns a wait function that
// blocks until the staged batch commits. onCommit, when non-nil, runs
// after the fsync and before any of the batch's waiters wake, in stage
// order — the replication Tee publishes from it so followers never see
// unsynced records. Callers MUST invoke wait exactly once: the first
// stager of a batch is its elected flusher, and the flush runs inside
// its wait. Per-id callers are expected to serialize their own stages
// (sim holds the handle lock across StageEvents), which fixes the
// intra-cluster record order; cross-cluster stages need no ordering and
// coalesce freely.
func (s *Dir) StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error) {
	if len(recs) == 0 {
		if onCommit != nil {
			onCommit()
		}
		return noopWait, nil
	}
	return s.group.stage(id, recs, onCommit)
}

// Snapshot commits a new generation. The snapshot rename is the commit
// point: it supersedes this cluster's segment records (Load skips records
// whose generation is older than the committed snapshot's) and heals any
// append poison — the snapshot holds the full current state, so a failed
// batch's gap is gone. The superseded generation's files, a legacy WAL
// among them, are then deleted and dead segments collected.
func (s *Dir) Snapshot(id string, snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen, err := s.group.genOf(id)
	if err != nil {
		return err
	}
	dir := s.dir(id)
	if err := writeFileAtomic(filepath.Join(dir, snapName(gen+1)), snap); err != nil {
		return fmt.Errorf("store: writing snapshot for %q: %w", id, err)
	}
	os.Remove(filepath.Join(dir, walName(gen)))
	if gen > 0 {
		os.Remove(filepath.Join(dir, snapName(gen)))
	}
	s.group.committed(id, gen+1)
	s.group.gc()
	return nil
}

// Remove deletes all state for id; removing an unknown id is a no-op.
func (s *Dir) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.RemoveAll(s.dir(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.root); err != nil {
		return err
	}
	s.group.removed(id)
	s.group.gc()
	return nil
}

// Load scans the root and returns every committed cluster, sorted by id.
// A directory without a committed spec (crash mid-Put) is skipped; a torn
// final WAL record is dropped; any other malformed state is an error.
func (s *Dir) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Record
	gens := make(map[string]int)
	for _, e := range entries {
		if !e.IsDir() || validID(e.Name()) != nil {
			continue
		}
		id := e.Name()
		dir := s.dir(id)
		spec, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // torn Put: the cluster was never acknowledged
			}
			return nil, fmt.Errorf("store: reading spec of %q: %w", id, err)
		}
		rec := Record{ID: id, Spec: spec}
		gen, err := curGen(dir)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if snap, err := os.ReadFile(filepath.Join(dir, snapName(gen))); err == nil {
			rec.Snapshot = snap
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: reading snapshot of %q: %w", id, err)
		}
		wal, err := readWAL(filepath.Join(dir, walName(gen)))
		if err != nil {
			return nil, fmt.Errorf("store: reading WAL of %q: %w", id, err)
		}
		rec.WAL = wal
		gens[id] = gen
		out = append(out, rec)
	}
	// A legacy per-cluster WAL is a frozen prefix; committed segment
	// records of the live generation replay after it, in commit order.
	byID := make(map[string]*Record, len(out))
	for i := range out {
		byID[out[i].ID] = &out[i]
	}
	if err := s.group.loadInto(byID, gens); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// readWAL parses a JSON-line WAL. A record is complete only when its
// newline made it to disk (acknowledged appends always have it — the
// newline is in the same write, before the fsync), so bytes after the
// last '\n' are a torn tail and dropped. An invalid record is additionally tolerated as the final
// line (defense against a torn sector that still got its newline) and
// dropped; anywhere else it is corruption and an error. A missing file
// is an empty WAL. Only legacy per-cluster WALs are read this way.
func readWAL(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break // torn tail: its newline (and fsync) never completed
		}
		line := data[:i]
		data = data[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !json.Valid(line) {
			if len(bytes.TrimSpace(data)) == 0 {
				break // torn final record
			}
			return nil, fmt.Errorf("corrupt WAL record %q", line)
		}
		recs = append(recs, append([]byte(nil), line...))
	}
	return recs, nil
}

// Close drains the commit batcher and releases the active segment.
// Every acknowledged append is already fsync'd, so Close is about file
// handles, not durability; the daemon itself never needs it (process
// exit closes everything), tests and embedders might.
func (s *Dir) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.group.close()
	return nil
}
