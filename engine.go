package fusion

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sim"
)

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers is the size of a private persistent worker pool for the
	// engine. 0 means the shared process-wide pool, which follows
	// runtime.GOMAXPROCS.
	Workers int

	// MaxInFlight bounds the number of concurrently admitted requests
	// (Acquire callers). 0 disables admission control: Acquire always
	// succeeds immediately and only the in-flight count is tracked.
	MaxInFlight int

	// QueueDepth is how many Acquire callers may wait in FIFO order once
	// MaxInFlight is reached; beyond that Acquire fails fast with
	// ErrQueueFull. Meaningless without MaxInFlight > 0 (admission is
	// disabled, so nothing ever queues).
	QueueDepth int

	// QueueTimeout bounds how long a queued Acquire waits before giving up
	// with ErrQueueTimeout. 0 means queued callers wait until their
	// context is cancelled. Meaningless without MaxInFlight > 0.
	QueueTimeout time.Duration
}

// Engine is the execution engine behind fusion generation and cluster
// simulation: a persistent, sharded worker pool (see internal/exec) that
// the closure fan-out of Algorithm 2, the event broadcast of simulated
// clusters, and the sensor-network replay all draw their parallelism
// from. Workers live for the lifetime of the engine and keep per-worker
// scratch alive across calls, so services generating many fusions or
// driving many clusters concurrently pay the goroutine fan-out once, not
// per call.
//
// Engines only redistribute work — they never change results: Generate
// returns the same machines and a Cluster the same simulation outcome for
// a given seed regardless of worker count. An engine keeps no fusion
// cache: every Generate runs Algorithm 2. fusiond consults its
// content-addressed cache (internal/fcache) before it reaches an engine.
//
// In front of the pool sits an admission layer (MaxInFlight, QueueDepth,
// QueueTimeout): services bracket each request with Acquire/Release so a
// flood of calls degrades into bounded queueing and fast ErrQueueFull
// rejections instead of piling unbounded goroutines onto the shared pool.
// Close drains admitted work and tears a private pool down; fusiond
// (internal/server) uses exactly this surface for graceful shutdown.
//
// The package-level Generate, GenerateWithOptions and NewCluster are thin
// wrappers over DefaultEngine; construct an Engine with NewEngine when a
// service wants its own admission limits or a private pool.
type Engine struct {
	pool     *exec.Pool
	ownsPool bool // false for the shared default pool, which Close must not stop
	admit    *admission
}

var defaultEngine = &Engine{pool: exec.Default(), admit: newAdmission(0, 0, 0)}

// DefaultEngine returns the process-wide engine, whose pool follows
// GOMAXPROCS.
func DefaultEngine() *Engine { return defaultEngine }

// NewEngine returns an engine with the given pool size and admission
// limits. Engines are meant to be long-lived (one per service or tenant,
// not one per request): workers spawn lazily on first parallel use and
// live until Close.
//
// Every call returns a distinct engine with its own admission state,
// in-flight statistics and Close lifecycle; DefaultEngine is the one way
// to reach the shared engine. The engine runs on the shared default pool
// unless Workers > 0 asks for a private one, so per-tenant engines still
// draw from one bounded goroutine set by default.
func NewEngine(opts EngineOptions) *Engine {
	e := &Engine{
		pool:  exec.Default(),
		admit: newAdmission(opts.MaxInFlight, opts.QueueDepth, opts.QueueTimeout),
	}
	if opts.Workers > 0 {
		e.pool = exec.New(opts.Workers)
		e.ownsPool = true
	}
	return e
}

// Workers returns the engine pool's current worker target.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Acquire admits one request under the engine's admission limits,
// blocking in FIFO order while the engine is saturated. A nil return
// means the caller holds an in-flight slot and must Release exactly once
// when its work is done. Non-nil returns are ErrQueueFull (shed now),
// ErrQueueTimeout (waited too long), ErrEngineClosed (draining), or the
// ctx error if the caller's context cancelled the wait. ctx may be nil.
func (e *Engine) Acquire(ctx context.Context) error { return e.admit.Acquire(ctx) }

// Release returns the slot taken by a successful Acquire, handing it to
// the longest-queued waiter if any.
func (e *Engine) Release() { e.admit.Release() }

// InFlight returns the number of admitted, unreleased requests.
func (e *Engine) InFlight() int { return e.admit.InFlight() }

// Queued returns the number of requests waiting for admission.
func (e *Engine) Queued() int { return e.admit.Queued() }

// Close drains the engine: queued Acquires fail with ErrEngineClosed, new
// Acquires are refused, Close blocks until every admitted request has
// Released, and then the engine's private worker pool (if it owns one)
// is torn down. Close is idempotent, and work submitted to a closed
// engine still completes — serially, on the caller.
//
// The shared default engine is process-wide: one component closing it
// would poison every other user's Acquire, so Close on it is a no-op.
func (e *Engine) Close() {
	if e == defaultEngine {
		return
	}
	e.admit.Close()
	if e.ownsPool {
		e.pool.Close()
	}
}

// Generate runs Algorithm 2 on this engine's pool; see the package-level
// Generate.
func (e *Engine) Generate(sys *System, f int) ([]Partition, error) {
	return e.GenerateWithOptions(sys, f, GenerateOptions{})
}

// GenerateWithOptions is Generate with explicit options. The engine
// supplies the worker pool, overriding any opts.Pool.
func (e *Engine) GenerateWithOptions(sys *System, f int, opts GenerateOptions) ([]Partition, error) {
	opts.Pool = e.pool
	return core.GenerateFusion(sys, f, opts)
}

// NewCluster builds a simulated deployment tolerating f crash faults,
// with fusion generation and event broadcast running on this engine's
// pool; see the package-level NewCluster.
func (e *Engine) NewCluster(ms []*Machine, f int, seed int64) (*Cluster, error) {
	return sim.NewClusterOn(e.pool, ms, f, seed)
}

// LoadRegistry rebuilds a store-backed cluster registry from its durable
// state, re-generating every recovered cluster on this engine's pool:
// specs become live clusters, the latest snapshots are restored, and WAL
// tails are replayed (see sim.LoadRegistry). With a nil store it returns
// an empty in-memory registry. fusiond calls this at boot so a restarted
// daemon serves the same tenants, handle ids, and per-server states it
// was killed with.
func (e *Engine) LoadRegistry(capacity int, st sim.Store, compactEvery int) (*sim.Registry, error) {
	return sim.LoadRegistry(e.pool, capacity, st, compactEvery)
}

// IsLocallyMinimalFusion verifies that F is a locally minimal (f,·)-
// fusion of sys — no single machine can be replaced by a lower-cover
// element without losing f-fault tolerance. Each lower cover is one
// serial level-0 pass, so the check runs on the caller, not on this
// engine's pool.
func (e *Engine) IsLocallyMinimalFusion(sys *System, F []Partition, f int) (bool, error) {
	return core.IsLocallyMinimalFusion(sys, F, f)
}
