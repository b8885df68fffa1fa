package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exec"
	"repro/internal/trace"
)

// This file makes the registry durable. A store-backed Registry journals
// every mutating Handle.Update sequence as WAL records — event windows,
// fault outcomes, recovery rounds — and compacts the journal into a
// Checkpoint-based snapshot once it crosses a length threshold.
// LoadRegistry inverts the process after a crash or restart: rebuild each
// cluster from its ClusterSpec (fusion generation is deterministic),
// restore the latest snapshot, and replay the WAL tail. The result is
// bit-identical visible state: same handle ids, same per-server states,
// same step counts, same metrics.
//
// Byzantine fault records carry the *outcome* (the corrupted state the
// live rng drew), not just the input, so replay never depends on the rng
// cursor the dead process had advanced to. Fresh faults injected after a
// restart draw from the rebuilt seed's stream instead — valid corruption
// either way, pinned by the recovery tests.

// Store is the durable backend behind a Registry. internal/store
// provides the implementations (an in-memory one and a file-per-cluster
// one); the interface lives here so sim stays free of storage concerns
// and backends stay free of sim types — records are opaque bytes with a
// single framing rule: each WAL record is single-line JSON.
type Store interface {
	// Put records a new cluster's immutable spec. It must be durable
	// before returning: Add does not publish a handle whose creation
	// could be forgotten.
	Put(id string, spec []byte) error
	// StageEvents starts a durable append of WAL records for id, oldest
	// first, and returns a wait function that blocks until they are
	// committed; the caller must invoke it exactly once. onCommit, when
	// non-nil, runs once the records are durable, before wait returns.
	// Per-id callers serialize their own stages (Handle.Update holds the
	// handle lock across the call), which fixes the record order.
	StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error)
	// Snapshot atomically replaces id's snapshot and resets its WAL. A
	// crash must leave either the old snapshot+WAL or the new snapshot
	// with an empty WAL — never the new snapshot with the old WAL.
	Snapshot(id string, snap []byte) error
	// Remove deletes all state for id.
	Remove(id string) error
	// Load returns every stored cluster.
	Load() ([]StoreRecord, error)
}

// StoreRecord is one cluster's durable state, as loaded from a Store.
// It is an alias of the same anonymous struct internal/store aliases as
// store.Record, so backends satisfy Store without importing sim (two
// aliases of one anonymous struct are one type; two named structs with
// identical fields are not).
type StoreRecord = struct {
	ID       string
	Spec     []byte
	Snapshot []byte
	WAL      [][]byte
}

// DefaultCompactEvery is the journal length at which a store-backed
// handle compacts its WAL into a snapshot.
const DefaultCompactEvery = 256

// metaID is the reserved store record carrying registry-level state: the
// id sequence high-water mark. Ids must never be reused even across
// restarts, and the surviving cluster ids alone cannot prove that — a
// deleted highest id would be re-minted after a reload, silently
// aliasing a dead handle. The record rides the Store interface like a
// cluster: Put creates it, Snapshot updates it, LoadRegistry skips it
// when rebuilding clusters and reads the sequence from it.
const metaID = "_meta"

// MetaRecordID is the reserved store record id carrying registry-level
// state rather than a cluster; replication followers must route its
// records into sequence bookkeeping instead of building a cluster from
// them.
const MetaRecordID = metaID

// RegistryMetaSeq decodes the id high-water mark from a meta record's
// payload (a Put-time spec or a Snapshot body — same shape either way).
func RegistryMetaSeq(raw []byte) (int, error) {
	var m registryMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("sim: decoding registry meta: %w", err)
	}
	return m.Seq, nil
}

// registryMeta is the metaID record's payload.
type registryMeta struct {
	Seq int `json:"seq"`
}

// ensureMeta creates the meta record if this store never had one. An
// "already exists" rejection is the normal case on reload; any other
// failure will resurface loudly on the first Add's persistSeq.
func ensureMeta(st Store) {
	b, _ := json.Marshal(registryMeta{}) //nolint:errcheck // plain struct
	st.Put(metaID, b)                    //nolint:errcheck // see above
}

// persistSeq durably records the id high-water mark.
func persistSeq(st Store, seq int) error {
	b, err := json.Marshal(registryMeta{Seq: seq})
	if err != nil {
		return fmt.Errorf("sim: encoding registry meta: %w", err)
	}
	if err := st.Snapshot(metaID, b); err != nil {
		return fmt.Errorf("sim: persisting id sequence: %w", err)
	}
	return nil
}

// decodeMeta reads the sequence from a loaded meta record (the snapshot
// when one was ever written, else the Put-time spec).
func decodeMeta(rec StoreRecord) (int, error) {
	raw := rec.Snapshot
	if raw == nil {
		raw = rec.Spec
	}
	var m registryMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("sim: decoding registry meta: %w", err)
	}
	return m.Seq, nil
}

// walRecord is one journaled mutation, encoded as single-line JSON.
type walRecord struct {
	// Op is "events", "fault", or "recover".
	Op string `json:"op"`
	// Events is the broadcast window (op "events").
	Events []string `json:"events,omitempty"`
	// Server and Kind identify a fault (op "fault"); Kind is "crash" or
	// "byzantine".
	Server string `json:"server,omitempty"`
	Kind   string `json:"kind,omitempty"`
	// State is the recorded Byzantine corruption outcome; Lied is false
	// for the one-state no-op that cannot corrupt.
	State int  `json:"state"`
	Lied  bool `json:"lied,omitempty"`
	// Failed marks a recovery round whose vote was ambiguous (op
	// "recover"): it mutates nothing but the FailedRecoveries counter,
	// which must survive a restart like every other counter.
	Failed bool `json:"failed,omitempty"`
}

// durableSnapshot is the compaction record: the visible Checkpoint plus
// the parts a restart would otherwise lose — the verification oracle and
// the activity counters.
type durableSnapshot struct {
	Checkpoint *Checkpoint     `json:"checkpoint"`
	Oracle     map[string]int  `json:"oracle,omitempty"`
	Metrics    MetricsSnapshot `json:"metrics"`
}

// replayRecord applies one WAL record to a rebuilt cluster.
func replayRecord(c *Cluster, raw []byte) error {
	var w walRecord
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("sim: decoding WAL record: %w", err)
	}
	switch w.Op {
	case "events":
		c.ApplyAll(w.Events)
		return nil
	case "fault":
		switch w.Kind {
		case "crash":
			return c.Inject(trace.Fault{Server: w.Server, Kind: trace.Crash})
		case "byzantine":
			return c.injectByzantineAt(w.Server, w.State, w.Lied)
		default:
			return fmt.Errorf("sim: WAL fault record with unknown kind %q", w.Kind)
		}
	case "recover":
		// Algorithm 3 is deterministic in the server states, which replay
		// has reproduced exactly: a vote that succeeded live succeeds
		// here, and a vote that failed live fails here (bumping
		// FailedRecoveries exactly as the live run did).
		_, err := c.Recover()
		if w.Failed {
			if err == nil {
				return fmt.Errorf("sim: replayed recovery succeeded where the live vote was ambiguous")
			}
			return nil
		}
		return err
	default:
		return fmt.Errorf("sim: WAL record with unknown op %q", w.Op)
	}
}

// Tx is the journaling view of a cluster inside Handle.Update: mutations
// issued through it are recorded and appended to the registry's store
// when the sequence ends. Reads (and only reads) may go straight to
// Cluster(); a mutation that bypasses the Tx would be invisible to the
// journal and silently lost on restart.
type Tx struct {
	c       *Cluster
	store   Store // nil = journaling off; record() is a no-op
	recs    [][]byte
	rebased bool // a Restore rewound the cluster; compact instead of appending
}

// Cluster exposes the underlying cluster for reads.
func (tx *Tx) Cluster() *Cluster { return tx.c }

func (tx *Tx) record(w walRecord) {
	if tx.store == nil {
		return
	}
	b, err := json.Marshal(w)
	if err != nil {
		// walRecord is plain data; Marshal cannot fail. Guard anyway.
		panic(fmt.Sprintf("sim: encoding WAL record: %v", err))
	}
	tx.recs = append(tx.recs, b)
}

// ApplyAll broadcasts an event window and journals it. An empty window
// stays a complete no-op, on disk as in memory.
func (tx *Tx) ApplyAll(events []string) {
	if len(events) == 0 {
		return
	}
	tx.c.ApplyAll(events)
	tx.record(walRecord{Op: "events", Events: events})
}

// Inject applies a fault and journals its outcome. For Byzantine faults
// the corrupted state the live rng drew is recorded, making replay
// independent of rng cursor position.
func (tx *Tx) Inject(f trace.Fault) error {
	if err := tx.c.Inject(f); err != nil {
		return err
	}
	rec := walRecord{Op: "fault", Server: f.Server, State: -1}
	switch f.Kind {
	case trace.Crash:
		rec.Kind = "crash"
	case trace.Byzantine:
		rec.Kind = "byzantine"
		st, lying, ok := tx.c.serverStatus(f.Server)
		if !ok {
			return fmt.Errorf("sim: server %q vanished mid-transaction", f.Server)
		}
		rec.State, rec.Lied = st, lying
	}
	tx.record(rec)
	return nil
}

// Recover runs a recovery round and journals its outcome — including an
// ambiguous vote, which restores no server but does count a failed
// recovery, and counters must not regress across a restart.
func (tx *Tx) Recover() (*RecoveryOutcome, error) {
	out, err := tx.c.Recover()
	if err != nil {
		tx.record(walRecord{Op: "recover", Failed: true})
		return nil, err
	}
	tx.record(walRecord{Op: "recover"})
	return out, nil
}

// Restore rewinds the cluster to a checkpoint and journals the rewind as
// a snapshot: a restored state is a new baseline, not an event to
// replay, so the journal is compacted on the spot.
func (tx *Tx) Restore(cp *Checkpoint) error {
	if err := tx.c.Restore(cp); err != nil {
		return err
	}
	// The pending records predate the rewind and must not replay on top
	// of it; the owning Handle snapshots right after the sequence, making
	// the rewound state the new durable baseline.
	tx.recs = nil
	tx.rebased = true
	return nil
}

// encodeSnapshot captures the cluster's durable snapshot record.
func encodeSnapshot(c *Cluster) ([]byte, error) {
	snap := durableSnapshot{
		Checkpoint: c.Snapshot(),
		Oracle:     c.oracleStates(),
		Metrics:    c.Metrics().Snapshot(),
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding snapshot: %w", err)
	}
	return b, nil
}

// restoreSnapshot applies a durable snapshot record to a rebuilt cluster.
func restoreSnapshot(c *Cluster, raw []byte) error {
	var snap durableSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("sim: decoding snapshot: %w", err)
	}
	if snap.Checkpoint == nil {
		return fmt.Errorf("sim: snapshot without checkpoint")
	}
	if err := c.Restore(snap.Checkpoint); err != nil {
		return err
	}
	if snap.Oracle != nil {
		if err := c.setOracle(snap.Oracle); err != nil {
			return err
		}
	}
	c.metrics.restore(snap.Metrics)
	return nil
}

// LoadRegistry rebuilds a store-backed registry from its durable state:
// for every stored cluster, the spec is re-generated into a live Cluster
// (Algorithm 2 is deterministic, so servers and fusion machines come
// back identical), the latest snapshot is restored, and the WAL tail is
// replayed. Handle ids survive verbatim and the id sequence continues
// past the highest recovered id. Recovered clusters are kept even if
// they exceed capacity (they exist; dropping them would lose data) —
// capacity gates new Adds only.
func LoadRegistry(pool *exec.Pool, capacity int, st Store, compactEvery int) (*Registry, error) {
	r := NewStoredRegistry(capacity, st, compactEvery)
	if st == nil {
		return r, nil
	}
	recs, err := st.Load()
	if err != nil {
		return nil, err
	}
	if _, err := r.restoreRecords(pool, recs, st); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadDetachedRegistry rebuilds the same live state LoadRegistry would —
// specs regenerated, snapshots restored, WAL tails replayed, ids and the
// id sequence preserved — but leaves the registry and every handle
// detached from any store: nothing it does, now or later, is journaled.
// This is the replication follower's warm mirror: the durable truth is
// the op feed being applied to the follower's own store, and the mirror
// exists so reads are served live and promotion replays nothing. The
// returned map carries each cluster's WAL tail length (records since its
// last snapshot), which Bind needs to resume compaction bookkeeping at
// promotion. Capacity is unbounded — a mirror must hold whatever the
// leader holds.
func LoadDetachedRegistry(pool *exec.Pool, st Store) (*Registry, map[string]int, error) {
	r := NewRegistry(0)
	recs, err := st.Load()
	if err != nil {
		return nil, nil, err
	}
	walLens, err := r.restoreRecords(pool, recs, nil)
	if err != nil {
		return nil, nil, err
	}
	return r, walLens, nil
}

// restoreRecords rebuilds clusters from loaded store records into r,
// attaching handles to attach (nil = detached). It returns per-cluster
// WAL tail lengths. Callers own r exclusively — this is construction,
// not mutation of a published registry.
func (r *Registry) restoreRecords(pool *exec.Pool, recs []StoreRecord, attach Store) (map[string]int, error) {
	sort.Slice(recs, func(i, j int) bool { return idOrder(recs[i].ID, recs[j].ID) })
	walLens := make(map[string]int, len(recs))
	for _, rec := range recs {
		if rec.ID == metaID {
			seq, err := decodeMeta(rec)
			if err != nil {
				return nil, err
			}
			if seq > r.seq {
				r.seq = seq
			}
			r.metaSeq = seq
			// The meta record appears in the map too (WAL length 0 — it
			// only ever sees Put and Snapshot), so replication mirrors
			// can tell "meta exists" from "never created".
			walLens[rec.ID] = len(rec.WAL)
			continue
		}
		var spec ClusterSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			return nil, fmt.Errorf("sim: decoding spec of %q: %w", rec.ID, err)
		}
		c, err := NewClusterFromSpecOn(pool, &spec)
		if err != nil {
			return nil, fmt.Errorf("sim: rebuilding cluster %q: %w", rec.ID, err)
		}
		if rec.Snapshot != nil {
			if err := restoreSnapshot(c, rec.Snapshot); err != nil {
				return nil, fmt.Errorf("sim: restoring cluster %q: %w", rec.ID, err)
			}
		}
		for i, raw := range rec.WAL {
			if err := replayRecord(c, raw); err != nil {
				return nil, fmt.Errorf("sim: replaying record %d of cluster %q: %w", i, rec.ID, err)
			}
		}
		r.clusters[rec.ID] = &Handle{
			c: c, id: rec.ID, store: attach,
			compactEvery: r.compactEvery, walLen: len(rec.WAL),
		}
		walLens[rec.ID] = len(rec.WAL)
		if n, ok := idSeq(rec.ID); ok && n > r.seq {
			r.seq = n
		}
	}
	return walLens, nil
}

// idSeq extracts the numeric sequence from a registry id ("c17" → 17).
func idSeq(id string) (int, bool) {
	if !strings.HasPrefix(id, "c") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// idOrder sorts ids in numeric creation order, unknown shapes last.
func idOrder(a, b string) bool {
	na, oka := idSeq(a)
	nb, okb := idSeq(b)
	switch {
	case oka && okb:
		return na < nb
	case oka != okb:
		return oka
	default:
		return a < b
	}
}
