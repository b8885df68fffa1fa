package store

import (
	"fmt"
	"sync"
)

// This file is the storage half of fusiond's replication plane: every
// durable mutation a leader applies — spec puts, fsync'd WAL appends,
// generation-numbered snapshots, removes — becomes an Op in a bounded
// in-memory Log, and a Tee is the Store wrapper that commits to an inner
// backend first and publishes the Op second. internal/repl ships the Ops
// to followers; each follower applies them to its own Dir and keeps a
// warm registry mirror so promotion replays nothing but the tail.
//
// Ordering contract: the inner store commits (including its fsync)
// before the Op is published, so a published Op always describes durable
// leader state. A crash between the two loses only the publication; the
// next leader incarnation opens a new epoch and followers full-sync,
// which re-reads the inner store and repairs the gap.

// OpKind names a replicated store mutation.
type OpKind string

const (
	OpPut      OpKind = "put"      // new cluster spec (Data)
	OpAppend   OpKind = "append"   // WAL records (Recs), PrevWAL = records already in the generation
	OpSnapshot OpKind = "snapshot" // compaction snapshot (Data), resets the WAL
	OpRemove   OpKind = "remove"   // cluster deleted
)

// Op is one replicated store mutation, totally ordered by Seq within a
// leader epoch. Tenant namespaces the cluster id: one Log carries every
// tenant of the daemon.
type Op struct {
	Seq    uint64 `json:"seq"`
	Tenant string `json:"tenant"`
	Kind   OpKind `json:"kind"`
	ID     string `json:"id"`
	// Data carries the spec (put) or snapshot (snapshot) bytes.
	Data []byte `json:"data,omitempty"`
	// Recs carries the appended WAL records (append), oldest first.
	Recs [][]byte `json:"recs,omitempty"`
	// PrevWAL is the number of WAL records the cluster's current
	// generation held before this append — the follower's idempotency
	// anchor: a resumed shipment whose records already landed (fully or
	// partially, a torn replica tail having been repaired) is applied
	// from exactly the missing suffix, never twice.
	PrevWAL int `json:"prevWal,omitempty"`
}

// DefaultLogRetain bounds how many Ops a Log keeps for catch-up; a
// follower further behind than this is repaired by full sync instead.
const DefaultLogRetain = 4096

// Log is the leader's bounded replication feed: Ops appended by Tees,
// pulled in order by the shipping client. It is purely in-memory — the
// durable truth stays in the inner stores — so a process restart starts
// a fresh Log under a new epoch and followers resynchronize.
type Log struct {
	epoch  uint64
	retain int

	mu   sync.Mutex
	ops  []Op // contiguous Seqs, oldest first, at most retain
	last uint64
	subs []chan struct{}
}

// NewLog returns an empty feed for the given leader epoch. retain <= 0
// means DefaultLogRetain.
func NewLog(epoch uint64, retain int) *Log {
	if retain <= 0 {
		retain = DefaultLogRetain
	}
	return &Log{epoch: epoch, retain: retain}
}

// Epoch returns the leader epoch the feed was opened under.
func (l *Log) Epoch() uint64 { return l.epoch }

// Seq returns the highest sequence number assigned so far (0 = none).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Append assigns the next sequence number to op, retains it for
// catch-up, and wakes subscribers. It returns the assigned Seq.
func (l *Log) Append(op Op) uint64 {
	l.mu.Lock()
	l.last++
	op.Seq = l.last
	l.ops = append(l.ops, op)
	if over := len(l.ops) - l.retain; over > 0 {
		// Reslice rather than copy: append's growth then amortizes the
		// move of the retained window. Zeroing the dropped slots releases
		// their payloads before the backing array is next reallocated.
		clear(l.ops[:over])
		l.ops = l.ops[over:]
	}
	subs := l.subs
	l.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending wake-up
		}
	}
	return op.Seq
}

// Since returns up to max Ops with Seq > after, oldest first. ok=false
// means the feed no longer retains after+1 — the caller is too far
// behind and must full-sync. max <= 0 means no batch bound.
func (l *Log) Since(after uint64, max int) (ops []Op, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= l.last {
		return nil, true
	}
	first := l.last - uint64(len(l.ops)) + 1
	if after+1 < first {
		return nil, false
	}
	tail := l.ops[after+1-first:]
	if max > 0 && len(tail) > max {
		tail = tail[:max]
	}
	return append([]Op(nil), tail...), true
}

// Subscribe returns a channel that receives (capacity-one, coalesced)
// wake-ups on every Append. Subscriptions are never removed; the Log's
// subscribers are the daemon's shipper goroutines, whose lifetime is the
// Log's own.
func (l *Log) Subscribe() <-chan struct{} {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	l.subs = append(l.subs, ch)
	l.mu.Unlock()
	return ch
}

// Backend is the store surface a Tee wraps — structurally identical to
// sim.Store, satisfied by *Mem and *Dir.
type Backend interface {
	Put(id string, spec []byte) error
	StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error)
	Snapshot(id string, snap []byte) error
	Remove(id string) error
	Load() ([]Record, error)
}

// pendingOp is an append Op staged on the inner store but not yet
// fsync'd. Its commit callback publishes it — unless a Snapshot or
// Remove overtook the cluster first and cancelled it (the superseding
// Op carries the full state, and publishing the stale append afterwards
// would break the follower's PrevWAL anchoring).
type pendingOp struct {
	op        Op
	cancelled bool
}

// Tee is a Store that fans every successfully applied mutation out to a
// replication Log, tagged with a tenant name. It tracks each cluster's
// current WAL length so append Ops carry the PrevWAL anchor followers
// use for exactly-once resume; Load seeds that tracking from the inner
// store, so a Tee wrapped around existing state (the boot path) anchors
// correctly from the first post-boot append.
//
// A failed inner operation publishes nothing: the Log only ever carries
// mutations the leader holds durably.
type Tee struct {
	tenant string
	inner  Backend
	log    *Log

	mu      sync.Mutex
	walLen  map[string]int
	pending map[string][]*pendingOp // staged, unpublished appends per cluster, stage order
}

// NewTee wraps inner, publishing its mutations to log under the tenant
// label.
func NewTee(tenant string, inner Backend, log *Log) *Tee {
	return &Tee{tenant: tenant, inner: inner, log: log,
		walLen: make(map[string]int), pending: make(map[string][]*pendingOp)}
}

// SeedAnchors primes the per-cluster WAL anchors without re-reading the
// inner store — the promotion path, where the caller already holds each
// cluster's current WAL length from the mirror it is binding.
func (t *Tee) SeedAnchors(walLens map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, n := range walLens {
		t.walLen[id] = n
	}
}

// Put commits the spec to the inner store, then publishes it.
func (t *Tee) Put(id string, spec []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.inner.Put(id, spec); err != nil {
		return err
	}
	t.walLen[id] = 0
	t.log.Append(Op{Tenant: t.tenant, Kind: OpPut, ID: id, Data: spec})
	return nil
}

// StageEvents forwards a staged append to the inner store, keeping the
// Tee's commit-first-publish-second contract per batch: the append Op is
// prepared here (anchored at the pre-append WAL length) but published
// from the inner store's commit callback, which fires only after the
// batch's fsync — the Log never carries records the disk does not hold.
// Callbacks fire in stage order within and across batches, so Ops stay
// anchored; a Snapshot or Remove that overtakes an in-flight append
// cancels its pending Op (see pendingOp).
//
// The Tee lock is NOT held across the inner call: a non-batching inner
// store runs onCommit synchronously (which re-enters the Tee), and a
// batching one must let the stager park without blocking other tenants'
// Ops. Per-cluster stage order is the caller's to keep, exactly as for
// Dir.StageEvents.
func (t *Tee) StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error) {
	if len(recs) == 0 {
		if onCommit != nil {
			onCommit()
		}
		return noopWait, nil
	}
	t.mu.Lock()
	prev, tracked := t.walLen[id]
	if !tracked {
		t.mu.Unlock()
		// An append for a cluster this Tee never saw created or loaded
		// would publish an unanchorable Op; refuse loudly rather than
		// desynchronize every follower. (Unreachable through sim.Registry,
		// which always Puts or Loads before appending.)
		return nil, fmt.Errorf("store: tee append for untracked cluster %q", id)
	}
	tok := &pendingOp{op: Op{Tenant: t.tenant, Kind: OpAppend, ID: id, Recs: recs, PrevWAL: prev}}
	t.pending[id] = append(t.pending[id], tok)
	t.walLen[id] = prev + len(recs)
	t.mu.Unlock()
	wait, err := t.inner.StageEvents(id, recs, func() {
		t.commitStaged(id, tok)
		if onCommit != nil {
			onCommit()
		}
	})
	if err != nil {
		t.dropStaged(id, tok)
		return nil, err
	}
	return wait, nil
}

// commitStaged publishes a staged append whose fsync just completed,
// unless a superseding Op cancelled it.
func (t *Tee) commitStaged(id string, tok *pendingOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.pending[id]
	for i, p := range list {
		if p == tok {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(t.pending, id)
	} else {
		t.pending[id] = list
	}
	if !tok.cancelled {
		t.log.Append(tok.op)
	}
}

// dropStaged unwinds a stage the inner store refused: the Op was never
// published and the WAL anchor rolls back to its pre-stage value (per-id
// callers are serialized, so no later stage anchored on top of it).
func (t *Tee) dropStaged(id string, tok *pendingOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.pending[id]
	for i, p := range list {
		if p == tok {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(t.pending, id)
	} else {
		t.pending[id] = list
	}
	t.walLen[id] = tok.op.PrevWAL
}

// cancelStagedLocked voids the pending appends of a cluster a Snapshot
// or Remove just superseded: their records are already durable inside
// (or irrelevant to) the superseding Op, and publishing them after it
// would hand followers an append anchored into a WAL generation that no
// longer exists. Callers hold t.mu.
func (t *Tee) cancelStagedLocked(id string) {
	for _, p := range t.pending[id] {
		p.cancelled = true
	}
	delete(t.pending, id)
}

// Snapshot commits the compaction, then publishes it; the cluster's WAL
// anchor resets with the new generation.
func (t *Tee) Snapshot(id string, snap []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.inner.Snapshot(id, snap); err != nil {
		return err
	}
	t.cancelStagedLocked(id)
	t.walLen[id] = 0
	t.log.Append(Op{Tenant: t.tenant, Kind: OpSnapshot, ID: id, Data: snap})
	return nil
}

// Remove commits the deletion, then publishes it.
func (t *Tee) Remove(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.inner.Remove(id); err != nil {
		return err
	}
	t.cancelStagedLocked(id)
	delete(t.walLen, id)
	t.log.Append(Op{Tenant: t.tenant, Kind: OpRemove, ID: id})
	return nil
}

// Load delegates to the inner store and seeds the per-cluster WAL
// anchors from what it returns, so appends after a boot-time load carry
// correct PrevWAL values. Loads are not replicated — they mutate
// nothing.
func (t *Tee) Load() ([]Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs, err := t.inner.Load()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		t.walLen[rec.ID] = len(rec.WAL)
	}
	return recs, nil
}
