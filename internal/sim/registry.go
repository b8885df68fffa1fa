package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrRegistryFull is returned by Add when the registry is at capacity.
// It is the authoritative admission signal: Full() is only an advisory
// pre-check, so callers must test Add's error with errors.Is rather than
// trusting the pre-check (the TOCTOU window between the two is real).
var ErrRegistryFull = errors.New("sim: registry full")

// Handle is a registered cluster plus its request-serialization lock.
// Individual Cluster methods are already safe, but a service request
// usually spans several of them (apply a window, inject faults, read the
// resulting states for the response); Do and Update give such a sequence
// exclusive access so concurrent requests to the same cluster cannot
// interleave mid-sequence — one request's faults strike at its own cut,
// and its response describes its own mutations.
//
// On a store-backed registry, Update additionally journals the
// sequence's mutations and compacts the journal into a snapshot when it
// grows past the registry's threshold. Do is for read-only sequences: a
// mutation made through Do bypasses the journal and is lost on restart.
type Handle struct {
	mu sync.Mutex
	c  *Cluster

	id           string
	store        Store // nil = in-memory registry, no journaling
	compactEvery int
	walLen       int // WAL records since the last snapshot
	// dirty means the store is BEHIND the in-memory cluster: an append
	// (or rebase snapshot) failed after mutations were applied. Appending
	// later windows on top would leave a gap that replays to divergent
	// state, so while dirty every Update (and SnapshotAll) tries a full
	// snapshot instead — the only operation that can heal the gap.
	dirty bool
}

// Do runs f with exclusive multi-call access to the cluster, for
// read-only sequences. f must not call Do or Update on the same handle.
func (h *Handle) Do(f func(c *Cluster)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f(h.c)
}

// Update runs f with exclusive multi-call access to the cluster and, on
// a store-backed registry, durably appends the mutations f issued
// through the Tx before returning — a response written after Update
// describes state that survives a crash. f's error is returned verbatim
// when journaling is off or nothing was recorded; a journaling failure
// is joined onto it. After such a failure the in-memory state is ahead
// of the store; the handle remembers that and heals on the next Update
// (or SnapshotAll) by snapshotting the full current state rather than
// appending on top of the gap. f must not call Do or Update on the same
// handle.
//
// The handle lock is RELEASED while this Update waits for its batch's
// fsync (a Dir, or a Tee over one; a Mem's wait returns at once): the
// mutations are already applied and the records staged in order, so the
// lock has done its serialization work, and holding it through the fsync
// would forbid the very coalescing group commit exists for — independent
// handles must be able to park on the same batch. A next Update on this
// handle stages behind this one (the store keeps per-cluster stage
// order) and both ride whichever batches the flusher forms. Failure
// stays safe without the lock: the store poisons the cluster on a failed
// batch, refusing further stages until a snapshot heals it, so the dirty
// flag being set only after re-acquiring the lock cannot let an append
// sneak into the gap.
func (h *Handle) Update(f func(tx *Tx) error) error {
	h.mu.Lock()
	tx := &Tx{c: h.c, store: h.store}
	ferr := f(tx)
	if h.store == nil {
		h.mu.Unlock()
		return ferr
	}
	if tx.rebased || h.dirty {
		// Either a Restore rewound the cluster (the snapshot of the final
		// state is the new baseline, superseding any record of this
		// sequence) or an earlier journaling failure left the store
		// behind (only a full snapshot — never an append onto the gap —
		// can make it catch up; until one succeeds the handle stays
		// dirty and keeps refusing to append).
		err := h.snapshotLocked()
		h.dirty = err != nil
		h.mu.Unlock()
		return errors.Join(ferr, err)
	}
	if len(tx.recs) == 0 {
		h.mu.Unlock()
		return ferr
	}
	wait, err := h.store.StageEvents(h.id, tx.recs, nil)
	if err != nil {
		h.dirty = true
		h.mu.Unlock()
		return errors.Join(ferr, fmt.Errorf("sim: journaling cluster %q: %w", h.id, err))
	}
	h.walLen += len(tx.recs)
	h.mu.Unlock()
	if err := wait(); err != nil {
		h.mu.Lock()
		h.dirty = true
		h.mu.Unlock()
		return errors.Join(ferr, fmt.Errorf("sim: journaling cluster %q: %w", h.id, err))
	}
	h.mu.Lock()
	var serr error
	if !h.dirty && h.walLen >= h.compactEvery {
		serr = h.snapshotLocked()
	}
	h.mu.Unlock()
	return errors.Join(ferr, serr)
}

// Replay applies journaled WAL records to the live cluster without
// re-journaling them — the replication-mirror path, where the records
// are already durable upstream and this handle's cluster only needs to
// catch up in memory. Replay shares the handle lock with Do/Update, so
// a mirror serving reads never exposes a half-applied batch.
func (h *Handle) Replay(recs [][]byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, rec := range recs {
		if err := replayRecord(h.c, rec); err != nil {
			return fmt.Errorf("sim: replaying record %d: %w", i, err)
		}
	}
	return nil
}

// RestoreSnapshot rewinds the live cluster to a durable snapshot record
// (the compaction payload a leader published), without journaling — the
// replication-mirror counterpart of a leader-side compaction.
func (h *Handle) RestoreSnapshot(raw []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return restoreSnapshot(h.c, raw)
}

// snapshotLocked compacts the handle's journal into a snapshot. Callers
// hold h.mu.
func (h *Handle) snapshotLocked() error {
	snap, err := encodeSnapshot(h.c)
	if err != nil {
		return err
	}
	if err := h.store.Snapshot(h.id, snap); err != nil {
		return fmt.Errorf("sim: snapshotting cluster %q: %w", h.id, err)
	}
	h.walLen = 0
	return nil
}

// Registry is a concurrency-safe handle table for live Clusters: the
// piece a long-running service needs between "create a deployment" and
// "drive it with events / recover it" requests that arrive on different
// connections. IDs are dense ("c1", "c2", ...), never reused within a
// registry (nor across the restarts of a store-backed one), and
// meaningless outside it — each fusiond tenant owns one registry, so
// handles cannot leak across tenants.
//
// With a Store attached (NewStoredRegistry / LoadRegistry), the registry
// is durable: Add persists the cluster's spec before publishing the
// handle, Update sequences journal their mutations, and Remove deletes
// the durable record. Without one, behavior is the historical in-memory
// registry with zero persistence overhead.
type Registry struct {
	mu           sync.Mutex
	seq          int
	capacity     int // 0 = unbounded
	store        Store
	compactEvery int
	clusters     map[string]*Handle

	// metaMu serializes id-sequence persistence and keeps it monotonic:
	// concurrent Adds must not let a lower reservation overwrite a higher
	// one in the store (the whole point of the record is never moving
	// backwards). metaSeq is the highest value known durable.
	metaMu  sync.Mutex
	metaSeq int
}

// NewRegistry returns an empty in-memory registry. capacity bounds how
// many clusters may be live at once (Add fails beyond it); 0 means
// unbounded.
func NewRegistry(capacity int) *Registry {
	return NewStoredRegistry(capacity, nil, 0)
}

// NewStoredRegistry returns an empty registry journaling through st (nil
// disables persistence). compactEvery is the WAL length at which a
// handle's journal is compacted into a snapshot; 0 means
// DefaultCompactEvery. To rebuild a registry from existing durable
// state, use LoadRegistry instead.
func NewStoredRegistry(capacity int, st Store, compactEvery int) *Registry {
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	if st != nil {
		ensureMeta(st)
	}
	return &Registry{
		capacity:     capacity,
		store:        st,
		compactEvery: compactEvery,
		clusters:     make(map[string]*Handle),
	}
}

// Add registers a cluster and returns its fresh handle id. On a
// store-backed registry the cluster's spec is durable before the handle
// becomes visible; a store failure aborts the registration. The store
// write (disk fsyncs) happens outside the registry lock — only the id
// reservation and the publish hold it, so concurrent requests to other
// clusters of the tenant never stall behind a create's I/O. Capacity is
// re-checked at publish time; the loser of that race rolls its spec
// back, so ErrRegistryFull stays authoritative.
func (r *Registry) Add(c *Cluster) (string, error) {
	r.mu.Lock()
	if r.capacity > 0 && len(r.clusters) >= r.capacity {
		n := len(r.clusters)
		r.mu.Unlock()
		return "", fmt.Errorf("%w (%d live clusters)", ErrRegistryFull, n)
	}
	r.seq++
	n := r.seq
	id := fmt.Sprintf("c%d", n)
	st := r.store
	r.mu.Unlock()

	if st != nil {
		spec, err := encodeSpec(c)
		if err != nil {
			return "", err
		}
		if err := st.Put(id, spec); err != nil {
			return "", fmt.Errorf("sim: persisting cluster %q: %w", id, err)
		}
		// The id high-water mark must be durable before the id is
		// acknowledged, or a Remove of the highest id plus a restart
		// would re-mint it for a different cluster. (A crash between the
		// two writes is covered the other way: the surviving spec itself
		// proves the id was reached.)
		if err := r.persistSeqUpTo(n); err != nil {
			st.Remove(id) //nolint:errcheck // best-effort rollback; an unacknowledged spec is harmless
			return "", err
		}
	}

	r.mu.Lock()
	if r.capacity > 0 && len(r.clusters) >= r.capacity {
		n := len(r.clusters)
		r.mu.Unlock()
		if st != nil {
			// Best-effort rollback: if it fails, an unacknowledged spec
			// survives to the next Load — the same harmless outcome as a
			// crash right after Put.
			st.Remove(id) //nolint:errcheck
		}
		return "", fmt.Errorf("%w (%d live clusters)", ErrRegistryFull, n)
	}
	r.clusters[id] = &Handle{c: c, id: id, store: st, compactEvery: r.compactEvery}
	r.mu.Unlock()
	return id, nil
}

// Attach registers a rebuilt cluster under an externally minted id —
// the replication-mirror path, where the leader already assigned the id
// and the follower must reproduce it verbatim. Capacity is not checked
// (a mirror holds whatever the leader holds) and nothing is journaled;
// the handle inherits the registry's store, which is nil until Bind.
func (r *Registry) Attach(id string, c *Cluster) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.clusters[id]; ok {
		return fmt.Errorf("sim: cluster %q already attached", id)
	}
	r.clusters[id] = &Handle{c: c, id: id, store: r.store, compactEvery: r.compactEvery}
	if n, ok := idSeq(id); ok && n > r.seq {
		r.seq = n
	}
	return nil
}

// EnsureSeq raises the registry's id sequence — and its durable
// high-water bookkeeping — to at least n. Followers call it when a
// replicated meta record proves the leader reached n, so a promoted
// mirror never re-mints an id the old leader handed out, even when the
// cluster carrying the highest id was deleted before the feed reached
// this node.
func (r *Registry) EnsureSeq(n int) {
	r.mu.Lock()
	if n > r.seq {
		r.seq = n
	}
	r.mu.Unlock()
	r.metaMu.Lock()
	if n > r.metaSeq {
		r.metaSeq = n
	}
	r.metaMu.Unlock()
}

// Bind attaches a store to a detached registry (see
// LoadDetachedRegistry) so every future Add and Update journals — the
// promotion step that turns a follower's warm mirror into the
// authoritative store-backed registry without rebuilding a single
// cluster. walLens seeds each handle's journal-length counter (the
// records its store generation already holds) so compaction keeps firing
// on schedule; compactEvery <= 0 means DefaultCompactEvery. Bind is for
// registries not yet serving mutations — promotion flips the role to
// leader only after it returns.
func (r *Registry) Bind(st Store, compactEvery int, walLens map[string]int) {
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	r.mu.Lock()
	r.store = st
	r.compactEvery = compactEvery
	handles := make(map[string]*Handle, len(r.clusters))
	for id, h := range r.clusters {
		handles[id] = h
	}
	r.mu.Unlock()
	for id, h := range handles {
		h.mu.Lock()
		h.store = st
		h.compactEvery = compactEvery
		h.walLen = walLens[id]
		h.mu.Unlock()
	}
}

// SetCapacity changes the registry's Add-time capacity gate. A
// promoted mirror was built unbounded (it had to hold whatever the
// leader held); promotion re-imposes the serving node's own limit,
// which — like recovery — gates new Adds only and never evicts.
func (r *Registry) SetCapacity(n int) {
	r.mu.Lock()
	r.capacity = n
	r.mu.Unlock()
}

// persistSeqUpTo records n as the durable id high-water mark unless a
// concurrent Add already persisted something at least as high — the
// record must never move backwards.
func (r *Registry) persistSeqUpTo(n int) error {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if n <= r.metaSeq {
		return nil
	}
	if err := persistSeq(r.store, n); err != nil {
		return err
	}
	r.metaSeq = n
	return nil
}

// encodeSpec marshals a cluster's creation record.
func encodeSpec(c *Cluster) ([]byte, error) {
	spec, err := json.Marshal(c.Spec())
	if err != nil {
		return nil, fmt.Errorf("sim: encoding cluster spec: %w", err)
	}
	return spec, nil
}

// Get returns the handle for an id, or false for unknown (or removed)
// ids.
func (r *Registry) Get(id string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.clusters[id]
	return h, ok
}

// Remove drops an id; it reports whether the id was live. The cluster
// holds no external resources beyond its durable record, which is
// deleted too — a non-nil error means the id is gone from the live table
// but may resurrect from the store on the next load. (A request still
// inside Do/Update finishes normally on its own reference.)
func (r *Registry) Remove(id string) (bool, error) {
	r.mu.Lock()
	_, ok := r.clusters[id]
	delete(r.clusters, id)
	st := r.store
	r.mu.Unlock()
	if !ok || st == nil {
		return ok, nil
	}
	if err := st.Remove(id); err != nil {
		return ok, fmt.Errorf("sim: removing cluster %q from store: %w", id, err)
	}
	return ok, nil
}

// Full reports whether the registry is at capacity — an advisory
// pre-check letting callers skip expensive cluster construction that Add
// would only reject; Add remains the authoritative gate.
func (r *Registry) Full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.capacity > 0 && len(r.clusters) >= r.capacity
}

// SnapshotAll compacts every live cluster with a non-empty journal into
// a fresh snapshot — the shutdown-drain path, so a restart restores from
// snapshots alone instead of replaying WAL tails. Handles are snapshotted
// one at a time under their own locks; the first error is returned after
// attempting the rest.
func (r *Registry) SnapshotAll() error {
	r.mu.Lock()
	if r.store == nil {
		r.mu.Unlock()
		return nil
	}
	handles := make([]*Handle, 0, len(r.clusters))
	for _, h := range r.clusters {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	var first error
	for _, h := range handles {
		h.mu.Lock()
		if h.walLen > 0 || h.dirty {
			if err := h.snapshotLocked(); err != nil {
				if first == nil {
					first = err
				}
			} else {
				h.dirty = false
			}
		}
		h.mu.Unlock()
	}
	return first
}

// Metrics snapshots every live cluster's activity counters, keyed by
// handle id. The counters are atomic and the handle's cluster reference
// is immutable, so no Handle.Do serialization is needed — a snapshot
// taken mid-request simply reads the counts so far.
func (r *Registry) Metrics() map[string]MetricsSnapshot {
	r.mu.Lock()
	handles := make(map[string]*Handle, len(r.clusters))
	for id, h := range r.clusters {
		handles[id] = h
	}
	r.mu.Unlock()
	out := make(map[string]MetricsSnapshot, len(handles))
	for id, h := range handles {
		out[id] = h.c.Metrics().Snapshot()
	}
	return out
}

// Len returns the number of live clusters.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.clusters)
}

// IDs returns the live ids in numeric creation order.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.clusters))
	for id := range r.clusters {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i], out[j]) })
	return out
}
