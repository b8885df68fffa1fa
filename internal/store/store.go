// Package store provides the durable backends behind sim's store-backed
// cluster registry: a persistent record per cluster made of an immutable
// spec, an optional snapshot, and an append-only write-ahead log of the
// records appended since that snapshot. The paper assumes the DFSMs
// themselves live on "failure-resistant permanent storage" and only
// execution state is lost on a fault; these backends give fusiond exactly
// that storage, so a restarted daemon rebuilds its machines from specs
// and its execution state from snapshot + WAL replay.
//
// Both backends implement sim.Store structurally (this package does not
// import sim): Mem keeps everything in process memory — the harness for
// registry-level tests and the semantic reference for Dir — while Dir
// persists one directory per cluster with atomic-rename snapshots and an
// fsync'd WAL, surviving SIGKILL at any point.
//
// Record bytes are opaque to the backends except for one framing
// constraint: each WAL record must be a single-line JSON value (no raw
// newlines), which is what encoding/json produces. Dir uses JSON validity
// to detect and drop a torn final record after a crash.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Record is one cluster's full durable state as returned by Load: the
// immutable spec (sim.ClusterSpec JSON), the latest compaction snapshot
// (nil when none was ever taken — replay starts from the spec's initial
// state), and the WAL records appended since that snapshot, oldest
// first.
//
// Record is an alias of an anonymous struct — deliberately: sim declares
// the same alias (sim.StoreRecord), and two aliases of an identical
// anonymous struct are the same type, which lets these backends satisfy
// sim.Store structurally without either package importing the other.
type Record = struct {
	ID       string
	Spec     []byte
	Snapshot []byte
	WAL      [][]byte
}

// validID rejects ids that could escape a per-cluster namespace. Registry
// ids are "c1", "c2", ...; anything path-like is refused defensively.
func validID(id string) error {
	if id == "" || id == "." || id == ".." ||
		strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("store: invalid cluster id %q", id)
	}
	return nil
}

// Mem is an in-process Store: the same contract as Dir minus durability.
// It retains records across registry rebuilds within one process, which
// makes it the natural harness for recovery tests, and the default
// stand-in wherever a file backend is not configured (a nil store on the
// registry skips journaling entirely; Mem journals into memory).
type Mem struct {
	mu sync.Mutex
	m  map[string]*memRecord
	// cache is the flat content-addressed namespace (see cache.go),
	// lazily allocated on first use.
	cache map[string][]byte
}

type memRecord struct {
	spec, snap []byte
	wal        [][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string]*memRecord)} }

// Put records a new cluster's immutable spec.
func (s *Mem) Put(id string, spec []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; ok {
		return fmt.Errorf("store: cluster %q already exists", id)
	}
	s.m[id] = &memRecord{spec: append([]byte(nil), spec...)}
	return nil
}

// StageEvents appends WAL records for id under the store lock, then runs
// onCommit (when non-nil) and returns a no-op wait: memory has nothing to
// fsync, so the append is committed when the call returns. onCommit runs
// after the lock is released: a Tee's callback takes the Tee lock, which
// Tee.Put holds while it calls Put.
func (s *Mem) StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error) {
	s.mu.Lock()
	r, ok := s.m[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: no cluster %q", id)
	}
	for _, rec := range recs {
		r.wal = append(r.wal, append([]byte(nil), rec...))
	}
	s.mu.Unlock()
	if onCommit != nil {
		onCommit()
	}
	return noopWait, nil
}

// Snapshot atomically replaces id's snapshot and truncates its WAL.
func (s *Mem) Snapshot(id string, snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[id]
	if !ok {
		return fmt.Errorf("store: no cluster %q", id)
	}
	r.snap = append([]byte(nil), snap...)
	r.wal = nil
	return nil
}

// Remove deletes all state for id; removing an unknown id is a no-op.
func (s *Mem) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
	return nil
}

// Load returns every stored cluster, sorted by id.
func (s *Mem) Load() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.m))
	for id, r := range s.m {
		rec := Record{ID: id, Spec: append([]byte(nil), r.spec...)}
		if r.snap != nil {
			rec.Snapshot = append([]byte(nil), r.snap...)
		}
		for _, w := range r.wal {
			rec.WAL = append(rec.WAL, append([]byte(nil), w...))
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
