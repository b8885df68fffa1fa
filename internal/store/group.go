package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// This file is the Dir store's write-ahead log: one fsync for many
// handles, preallocated segments.
//
// An append only *stages* its records: callers enqueue framed lines on a
// shared commit batcher and park; a leader-elected flusher (the first
// stager of each batch, Pebble-style) concatenates the whole queue into
// a single vectored write + one fdatasync, then wakes every waiter.
// While one flush is on the disk, the next batch accumulates behind it —
// the previous fsync's latency IS the batching window, so coalescing
// needs no artificial delay (MaxBatchDelay can add one for spinning
// disks). Under a single writer every append still pays its own fsync.
//
// Because fsync is per-file, "one fsync for many handles" requires the
// records of many clusters to share a file: every cluster's records go
// into shared, size-rolled segments under <root>/.walseg/seg-<n>.log
// (the dot-prefix keeps the directory out of every cluster scan, like
// .fcache). The directory is created, and fsync'd into the root, by the
// first flush that needs a segment, so a Dir that never appends leaves
// none behind. Each line is a JSON envelope {"c":id,"g":gen,"r":record}
// tagging the record with its cluster and the cluster's snapshot
// generation at enqueue time; Load replays a segment record only when
// its generation matches the cluster's current one, so a snapshot commit
// (the atomic snapshot-<g+1>.json rename) supersedes older segment
// records. Segments are preallocated (fallocate) when created, so a
// batch write never extends file metadata inside its fdatasync, and a
// segment whose records are all superseded or removed is
// garbage-collected on the next snapshot.
//
// A cluster directory may also hold a legacy wal-<g>.log from a release
// that wrote one WAL file per cluster; Load replays it as a frozen prefix
// before the segment records (see Dir), and nothing here writes it.
//
// Crash discipline: records end at their newline, an acknowledged append
// is fsync'd before its waiter wakes, a torn tail (bytes after the last
// newline, or one final newline-terminated line that fails to parse,
// followed by nothing but preallocation zeros) is dropped at boot, and
// anything else is loud corruption. A restarted store never resumes
// appending into an old segment — boot seals every existing segment at
// its last complete record and starts a fresh one — so stale
// preallocated garbage can never end up *behind* a new append.
//
// Failure semantics: if a batch's write or fsync fails, every waiter in
// the batch gets the error and the affected cluster ids are poisoned —
// further stages are refused — until a successful Snapshot (or Remove)
// heals them. This is load-bearing, not just defensive: sim.Handle
// releases its per-handle lock before parking on the batch, so without
// store-side poisoning a later Update could stage on top of a failed
// append before the failed caller re-acquires the handle lock to mark
// it dirty, leaving a replay gap.

const (
	groupDirName   = ".walseg"     // shared segment log, dot-prefixed: skipped by cluster scans
	migrateDirName = ".walseg.mig" // older releases' claimed segments mid-migration; refused at open

	// DefaultMaxBatchBytes is the pending-batch size that triggers an
	// early flush when a MaxBatchDelay window is open.
	DefaultMaxBatchBytes = 1 << 20
	// DefaultSegmentBytes is the preallocated size of each WAL segment.
	DefaultSegmentBytes = 4 << 20
)

// DirOptions configures a Dir store beyond its root path.
type DirOptions struct {
	// Deprecated: every Dir appends through the shared commit batcher
	// described above; the field is ignored.
	GroupCommit bool
	// MaxBatchBytes flushes a pending batch early once it reaches this
	// size; <= 0 means DefaultMaxBatchBytes. It bounds the MaxBatchDelay
	// wait, not the batch itself (a batch takes whatever queued while
	// the previous flush was on the disk).
	MaxBatchBytes int
	// MaxBatchDelay is an extra wait before each flush for the batch to
	// fill. 0 (the default) flushes as soon as the previous fsync
	// returns — the natural group-commit window — which is right for
	// SSDs; spinning disks may trade latency for fewer syncs here.
	MaxBatchDelay time.Duration
	// SegmentBytes is the preallocated size of each shared WAL segment;
	// <= 0 means DefaultSegmentBytes. A batch larger than this gets a
	// segment of its own size.
	SegmentBytes int64
	// OnFlush, when set, observes every successful group commit — the
	// obsv plane's hook for fsync counters and batch/latency histograms.
	// It is called on the flushing goroutine; keep it cheap.
	OnFlush func(FlushStats)
}

// FlushStats describes one committed group-commit batch.
type FlushStats struct {
	Appends int           // staged calls the flush committed
	Records int           // WAL records across those calls
	Bytes   int           // framed bytes written
	Sync    time.Duration // wall time of the vectored write + fdatasync
}

// WALStats counts a Dir's WAL write activity.
type WALStats struct {
	Fsyncs  int64 // WAL fsyncs (batch fdatasyncs and segment preallocations)
	Flushes int64 // commit ticks, one per batch
	Records int64 // WAL records made durable
}

// segRec is the segment-line envelope around one cluster WAL record.
type segRec struct {
	C string          `json:"c"`
	G int             `json:"g"`
	R json.RawMessage `json:"r"`
}

// groupEntry is one staged StageEvents call parked on the batcher.
type groupEntry struct {
	id       string
	gen      int
	data     []byte // framed lines, newline-terminated
	recs     int
	onCommit func()
	done     chan error
	lead     bool // this entry's waiter runs the flush for its batch
}

// segment is one shared WAL file. f is open only while the segment is
// active (receiving appends); sealed segments are read by path. off is
// the committed byte count — Load reads [0, off) and never sees bytes an
// fsync hasn't covered.
type segment struct {
	n    int
	path string
	f    *os.File
	off  int64
	size int64
	live map[string]int // highest record generation per cluster the segment may hold
}

// note records that the segment holds a record of cluster id tagged gen.
func (seg *segment) note(id string, gen int) {
	if mg, ok := seg.live[id]; !ok || gen > mg {
		seg.live[id] = gen
	}
}

// groupWAL is the per-Dir commit batcher plus its segment log.
//
// Locking: mu guards all shared state (queue, segments, generations,
// poison) and is never held across I/O; flushMu serializes flush I/O and
// is held only by the elected leader of the batch being flushed. Lock
// order is s.mu -> mu for the Dir entry points and flushMu -> mu inside
// the flusher; neither flushMu nor mu is ever acquired while holding the
// other side's locks in reverse, and Load deliberately reads committed
// offsets under mu alone so a long fsync never blocks a full sync. Of
// the Dir entry points only Close takes flushMu: the flusher runs
// onCommit callbacks, and the replication Tee holds its own lock across
// Put, Snapshot and Remove while those callbacks need it.
type groupWAL struct {
	s   *Dir
	dir string

	flushMu sync.Mutex

	mu          sync.Mutex
	queue       []*groupEntry
	flight      []*groupEntry // the batch taken from queue, until its flush ends
	queuedBytes int
	leader      bool // a batch leader is elected and will flush
	closed      bool
	poisoned    map[string]struct{}
	gens        map[string]int // cluster id -> current snapshot generation
	seg         *segment       // active segment; nil until the first flush needs one
	sealed      []*segment     // older segments, ascending n, awaiting GC
	nextSeg     int

	// dirSynced is set once the segment directory exists and has been
	// fsync'd into the root by this open; only the flusher (under
	// flushMu) touches it.
	dirSynced bool

	kick chan struct{} // capacity 1: batch hit MaxBatchBytes, flush early
}

func segName(n int) string { return fmt.Sprintf("seg-%d.log", n) }

// openGroup scans (and repairs) the segment log at boot. Every existing
// segment is sealed at its last complete record — appends always go to a
// fresh segment — and clusters the segments mention get their current
// generation resolved so superseded segments can be collected.
func openGroup(s *Dir) (*groupWAL, error) {
	g := &groupWAL{
		s:        s,
		dir:      filepath.Join(s.root, groupDirName),
		poisoned: make(map[string]struct{}),
		gens:     make(map[string]int),
		kick:     make(chan struct{}, 1),
	}
	boot, err := scanSegmentDir(g.dir)
	if err != nil {
		return nil, err
	}
	for _, bs := range boot {
		seg := &segment{n: bs.n, path: bs.path, off: bs.keep, size: bs.keep, live: make(map[string]int)}
		for _, e := range bs.entries {
			seg.note(e.C, e.G)
		}
		g.sealed = append(g.sealed, seg)
		if bs.n >= g.nextSeg {
			g.nextSeg = bs.n + 1
		}
	}
	for _, seg := range g.sealed {
		for id := range seg.live {
			if _, ok := g.gens[id]; ok {
				continue
			}
			dir := s.dir(id)
			if _, err := os.Stat(filepath.Join(dir, "spec.json")); err != nil {
				if os.IsNotExist(err) {
					continue // removed (or torn-Put) cluster: its records are dead
				}
				return nil, fmt.Errorf("store: %w", err)
			}
			gen, err := curGen(dir)
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			g.gens[id] = gen
		}
	}
	g.gc()
	return g, nil
}

// bootSeg is one scanned segment file.
type bootSeg struct {
	n       int
	path    string
	entries []segRec
	keep    int64 // bytes up to and including the last complete record
}

// scanSegmentDir parses every segment in ascending order with the
// torn-tail tolerance scanSegment applies per file.
func scanSegmentDir(dir string) ([]bootSeg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []bootSeg
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.log", &n); err != nil || e.Name() != segName(n) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		recs, keep, err := scanSegment(data)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", e.Name(), err)
		}
		out = append(out, bootSeg{n: n, path: path, entries: recs, keep: keep})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	return out, nil
}

// scanSegment parses segment lines up to the first torn or preallocated
// tail. The tolerance rules mirror readWAL's: a record exists only up to
// the last newline; at most one newline-terminated line that fails to
// parse is tolerated when nothing but zeros/whitespace follows it (a
// torn sector inside the preallocated extent); an unparsable line with
// real data after it is corruption.
func scanSegment(data []byte) ([]segRec, int64, error) {
	var recs []segRec
	var keep int64
	rest := data
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break // torn (or never-written preallocated) tail
		}
		line := rest[:i]
		rest = rest[i+1:]
		var sr segRec
		if err := json.Unmarshal(line, &sr); err != nil || sr.C == "" || len(sr.R) == 0 {
			if zeroOrSpace(rest) {
				break // torn final record that still got its newline
			}
			return nil, 0, fmt.Errorf("corrupt segment record %q", line)
		}
		recs = append(recs, sr)
		keep += int64(i) + 1
	}
	return recs, keep, nil
}

// zeroOrSpace reports whether b holds nothing but NUL bytes (the
// preallocated extent) and whitespace.
func zeroOrSpace(b []byte) bool {
	for _, c := range b {
		switch c {
		case 0, ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// frameRecords wraps validated single-line-JSON records in the segment
// envelope, tagged with the cluster's generation at enqueue time.
func frameRecords(id string, gen int, recs [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range recs {
		if bytes.IndexByte(rec, '\n') >= 0 || !json.Valid(rec) {
			return nil, fmt.Errorf("store: WAL record for %q is not single-line JSON", id)
		}
		line, err := json.Marshal(segRec{C: id, G: gen, R: rec})
		if err != nil {
			return nil, fmt.Errorf("store: framing WAL record for %q: %w", id, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// genOf resolves (and caches) a cluster's current generation, verifying
// the cluster exists. Callers need not hold any Dir lock; same-cluster
// callers are serialized above the store (the handle lock).
func (g *groupWAL) genOf(id string) (int, error) {
	g.mu.Lock()
	if gen, ok := g.gens[id]; ok {
		g.mu.Unlock()
		return gen, nil
	}
	g.mu.Unlock()
	dir := g.s.dir(id)
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err != nil {
		return 0, fmt.Errorf("store: no cluster %q", id)
	}
	gen, err := curGen(dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	g.mu.Lock()
	g.gens[id] = gen
	g.mu.Unlock()
	return gen, nil
}

func poisonErr(id string) error {
	return fmt.Errorf("store: cluster %q has an unhealed failed append; only a snapshot can resume writes", id)
}

// stage enqueues one append on the batcher and returns its wait
// function. The first stager of a batch is elected leader; it runs the
// flush inside wait (not here), so staging never blocks on I/O and a
// caller may release its own serialization before parking.
func (g *groupWAL) stage(id string, recs [][]byte, onCommit func()) (func() error, error) {
	gen, err := g.genOf(id)
	if err != nil {
		return nil, err
	}
	data, err := frameRecords(id, gen, recs)
	if err != nil {
		return nil, err
	}
	e := &groupEntry{id: id, gen: gen, data: data, recs: len(recs), onCommit: onCommit, done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("store: store closed")
	}
	if _, bad := g.poisoned[id]; bad {
		g.mu.Unlock()
		return nil, poisonErr(id)
	}
	g.queue = append(g.queue, e)
	g.queuedBytes += len(data)
	if !g.leader {
		g.leader, e.lead = true, true
	}
	full := g.queuedBytes >= g.s.opts.MaxBatchBytes
	g.mu.Unlock()
	if full {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
	return func() error {
		if e.lead {
			g.lead()
		}
		return <-e.done
	}, nil
}

// lead runs one batch: wait for the previous flush (the coalescing
// window), optionally linger for MaxBatchDelay, take the whole queue,
// and flush it with one write + one fdatasync.
func (g *groupWAL) lead() {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	if d := g.s.opts.MaxBatchDelay; d > 0 {
		select {
		case <-g.kick: // stale: drained so the timer below isn't cut short spuriously
		default:
		}
		g.mu.Lock()
		full := g.queuedBytes >= g.s.opts.MaxBatchBytes
		g.mu.Unlock()
		if !full {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-g.kick:
				t.Stop()
			}
		}
	}
	g.mu.Lock()
	batch := g.queue
	g.queue = nil
	g.queuedBytes = 0
	g.leader = false
	live := batch[:0]
	var refused []*groupEntry
	for _, e := range batch {
		if _, bad := g.poisoned[e.id]; bad {
			refused = append(refused, e)
		} else {
			live = append(live, e)
		}
	}
	g.flight = live
	g.mu.Unlock()
	for _, e := range refused {
		e.done <- poisonErr(e.id)
	}
	g.flush(live)
}

// flush commits one batch. On success the per-entry onCommit callbacks
// run in enqueue order BEFORE any waiter wakes — replication publishes
// durable records only, in WAL order — then the waiters are released.
func (g *groupWAL) flush(batch []*groupEntry) {
	if len(batch) == 0 {
		return
	}
	var n int
	for _, e := range batch {
		n += len(e.data)
	}
	buf := make([]byte, 0, n)
	for _, e := range batch {
		buf = append(buf, e.data...)
	}
	start := time.Now()
	seg, err := g.segmentFor(int64(len(buf)))
	if err == nil {
		if _, werr := seg.f.WriteAt(buf, seg.off); werr != nil {
			err = werr
		} else {
			err = fdatasync(seg.f)
		}
	}
	if err != nil {
		g.fail(batch, err)
		return
	}
	recs := 0
	g.mu.Lock()
	seg.off += int64(len(buf))
	for _, e := range batch {
		seg.note(e.id, e.gen)
		recs += e.recs
	}
	g.flight = nil
	g.mu.Unlock()
	g.s.fsyncs.Add(1)
	g.s.flushes.Add(1)
	g.s.records.Add(int64(recs))
	for _, e := range batch {
		if e.onCommit != nil {
			e.onCommit()
		}
	}
	for _, e := range batch {
		e.done <- nil
	}
	if f := g.s.opts.OnFlush; f != nil {
		f(FlushStats{Appends: len(batch), Records: recs, Bytes: len(buf), Sync: time.Since(start)})
	}
}

// fail poisons every cluster in the failed batch and seals the wounded
// segment — it may hold a torn prefix of the batch, and no future append
// may land behind that garbage.
func (g *groupWAL) fail(batch []*groupEntry, err error) {
	g.mu.Lock()
	g.flight = nil
	for _, e := range batch {
		g.poisoned[e.id] = struct{}{}
	}
	if g.seg != nil {
		// Part of the batch may be on disk and replay at the next boot;
		// count it, so freshGen starts a recreated cluster past it.
		for _, e := range batch {
			g.seg.note(e.id, e.gen)
		}
		g.seg.f.Close()
		g.seg.f = nil
		g.sealed = append(g.sealed, g.seg)
		g.seg = nil
	}
	g.mu.Unlock()
	for _, e := range batch {
		e.done <- fmt.Errorf("store: group commit for %q: %w", e.id, err)
	}
}

// segmentFor returns the active segment with room for n more bytes,
// rolling to a freshly preallocated one when needed. Only the flusher
// (under flushMu) calls it. A roll never splits a batch: the whole batch
// goes to the new segment, so one flush is always one fdatasync.
func (g *groupWAL) segmentFor(n int64) (*segment, error) {
	g.mu.Lock()
	seg := g.seg
	num := g.nextSeg
	g.mu.Unlock()
	if seg != nil && seg.off+n <= seg.size {
		return seg, nil
	}
	if !g.dirSynced {
		// Synced even when the directory already exists: a process that
		// created it may have died before the root's fsync.
		if err := os.MkdirAll(g.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := syncDir(g.s.root); err != nil {
			return nil, err
		}
		g.dirSynced = true
	}
	size := g.s.opts.SegmentBytes
	if n > size {
		size = n
	}
	path := filepath.Join(g.dir, segName(num))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment: %w", err)
	}
	if err := preallocate(f, size); err == nil {
		// The allocation is metadata: persist it now (full fsync) so the
		// per-batch fdatasync never has metadata left to write.
		err = f.Sync()
		if err == nil {
			err = syncDir(g.dir)
		}
	} else {
		err = fmt.Errorf("preallocating segment: %w", err)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: %w", err)
	}
	g.s.fsyncs.Add(1)
	ns := &segment{n: num, path: path, f: f, size: size, live: make(map[string]int)}
	g.mu.Lock()
	if g.seg != nil {
		// Already durable up to off (every committed batch fsync'd);
		// sealed segments keep no file handle.
		g.seg.f.Close()
		g.seg.f = nil
		g.sealed = append(g.sealed, g.seg)
	}
	g.seg = ns
	g.nextSeg = num + 1
	g.mu.Unlock()
	return ns, nil
}

// freshGen returns the generation a new cluster with this id starts at:
// one past every generation a removed cluster with the same id tagged a
// record with, whether that record is in a segment, in flight or still
// queued, or 0 when there is none.
func (g *groupWAL) freshGen(id string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	top := -1
	for _, seg := range g.sealed {
		if mg, ok := seg.live[id]; ok {
			top = max(top, mg)
		}
	}
	if g.seg != nil {
		if mg, ok := g.seg.live[id]; ok {
			top = max(top, mg)
		}
	}
	for _, q := range [][]*groupEntry{g.flight, g.queue} {
		for _, e := range q {
			if e.id == id {
				top = max(top, e.gen)
			}
		}
	}
	return top + 1
}

// committed records a Put or a snapshot commit: the cluster is at
// generation gen and any poison heals (the snapshot wrote the full
// current state, so the gap a failed append left is gone).
func (g *groupWAL) committed(id string, gen int) {
	g.mu.Lock()
	g.gens[id] = gen
	delete(g.poisoned, id)
	g.mu.Unlock()
}

// removed forgets a deleted cluster; its segment records are dead.
func (g *groupWAL) removed(id string) {
	g.mu.Lock()
	delete(g.gens, id)
	delete(g.poisoned, id)
	g.mu.Unlock()
}

// gc deletes sealed segments whose records are all superseded (their
// cluster's generation moved past them) or orphaned (cluster removed).
// Callers hold s.mu or own g exclusively, so a concurrent Load can never
// be reading a segment gc deletes.
func (g *groupWAL) gc() {
	g.mu.Lock()
	defer g.mu.Unlock()
	kept := g.sealed[:0]
	for _, seg := range g.sealed {
		dead := true
		for id, mg := range seg.live {
			if cur, ok := g.gens[id]; ok && cur <= mg {
				dead = false
				break
			}
		}
		if dead {
			os.Remove(seg.path)
		} else {
			kept = append(kept, seg)
		}
	}
	g.sealed = kept
}

// loadInto appends each committed segment record to its cluster's WAL in
// Record order: segments ascending, bytes ascending, only records whose
// generation matches the cluster's current one. Callers hold s.mu; the
// committed offsets are read under g.mu so an in-flight flush (which
// only grows them after its fdatasync) is either fully visible or fully
// absent.
func (g *groupWAL) loadInto(recs map[string]*Record, gens map[string]int) error {
	type view struct {
		path string
		off  int64
	}
	g.mu.Lock()
	views := make([]view, 0, len(g.sealed)+1)
	for _, seg := range g.sealed {
		views = append(views, view{seg.path, seg.off})
	}
	if g.seg != nil {
		views = append(views, view{g.seg.path, g.seg.off})
	}
	g.mu.Unlock()
	for _, v := range views {
		if v.off == 0 {
			continue
		}
		f, err := os.Open(v.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		data := make([]byte, v.off)
		_, err = io.ReadFull(f, data)
		f.Close()
		if err != nil {
			return fmt.Errorf("store: reading segment %s: %w", filepath.Base(v.path), err)
		}
		// The committed region holds complete records only; anything
		// else is corruption, not a tolerable tail.
		for len(data) > 0 {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				return fmt.Errorf("store: segment %s: torn record inside committed region", filepath.Base(v.path))
			}
			line := data[:i]
			data = data[i+1:]
			var sr segRec
			if err := json.Unmarshal(line, &sr); err != nil || sr.C == "" || len(sr.R) == 0 {
				return fmt.Errorf("store: segment %s: corrupt record %q", filepath.Base(v.path), line)
			}
			rec, ok := recs[sr.C]
			if !ok || sr.G != gens[sr.C] {
				continue // removed cluster or superseded generation
			}
			rec.WAL = append(rec.WAL, append([]byte(nil), sr.R...))
		}
	}
	return nil
}

// close drains the batcher: waits out an in-flight flush, fails anything
// still queued (its waiters get a closed-store error rather than a
// hang), and releases the active segment.
func (g *groupWAL) close() {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	queued := g.queue
	g.queue = nil
	g.queuedBytes = 0
	g.closed = true
	if g.seg != nil {
		g.seg.f.Close()
		g.seg.f = nil
		g.sealed = append(g.sealed, g.seg)
		g.seg = nil
	}
	g.mu.Unlock()
	for _, e := range queued {
		e.done <- fmt.Errorf("store: store closed")
	}
}
