// Package server is fusiond's HTTP/JSON front-end over fusion.Engine: a
// long-running service exposing the paper's three workloads — fusion
// generation (Algorithm 2), simulated deployments with event broadcast
// and fault injection, and fused-state recovery (Algorithm 3) — as
// endpoints on one persistent process, so the engine's worker pool is
// finally exercised the way it was built for: many concurrent requests on
// a bounded goroutine set.
//
// Routes (all request/response bodies in api.go):
//
//	GET    /healthz                  liveness + per-tenant engine stats
//	POST   /v1/generate              Algorithm 2 fusion generation
//	POST   /v1/clusters              create a simulated deployment
//	GET    /v1/clusters/{id}         inspect a deployment
//	DELETE /v1/clusters/{id}         drop a deployment
//	POST   /v1/clusters/{id}/events  broadcast events, then inject faults
//	POST   /v1/clusters/{id}/recover run a recovery round
//
// Tenancy: requests carry a tenant name in a header (X-Fusion-Tenant by
// default; absent means "default"). Each tenant lazily gets its own
// fusion.Engine — its own admission limits, optionally its own worker
// pool — and its own cluster registry, so one tenant's flood or cluster
// handles never touch another's. Tenant names are client-controlled, so
// the daemon caps how many it materializes (MaxTenants); past the cap,
// requests for new names are shed with 429.
//
// Admission: every workload request brackets its engine use with
// Engine.Acquire/Release. When a tenant is saturated (MaxInFlight running
// and QueueDepth waiting) further requests are shed immediately with
// HTTP 429 and a Retry-After hint instead of stacking goroutines onto the
// pool — overload degrades into fast rejections, never unbounded memory.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fusion "repro"
	"repro/internal/fcache"
	"repro/internal/obsv"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/store"
)

// Options configures a Server. The zero value serves with no admission
// limits on the process-wide default engine.
type Options struct {
	// TenantHeader names the header carrying the tenant id; default
	// "X-Fusion-Tenant". An absent or empty header means tenant "default".
	TenantHeader string

	// Workers sizes each tenant's dedicated worker pool. 0 means tenants
	// share the process-wide default pool (still with per-tenant admission
	// when MaxInFlight is set).
	Workers int

	// MaxInFlight / QueueDepth / QueueTimeout are per-tenant admission
	// limits, passed through to fusion.EngineOptions. MaxInFlight 0
	// disables admission control.
	MaxInFlight  int
	QueueDepth   int
	QueueTimeout time.Duration

	// MaxClusters bounds each tenant's live cluster handles; default 64,
	// negative means unbounded.
	MaxClusters int

	// MaxTenants bounds how many distinct tenants the daemon will lazily
	// materialize; default 64, negative means unbounded. Tenant names come
	// from a client header and each tenant carries an engine (admission
	// state, optionally a dedicated pool) plus a cluster registry, so
	// without a cap a client minting fresh names would grow server memory
	// without bound and hand itself fresh admission quotas.
	MaxTenants int

	// MaxBodyBytes bounds request bodies; default 1 MiB.
	MaxBodyBytes int64

	// DataDir selects the durable file backend: each tenant's cluster
	// registry persists under DataDir/<tenant>, and New recovers every
	// tenant found there — same handle ids, same per-server states —
	// before serving. Empty means in-memory registries (state dies with
	// the process), the historical behavior and the hot-path default.
	DataDir string

	// CompactEvery is the per-cluster WAL length at which the journal is
	// compacted into a snapshot; 0 means sim.DefaultCompactEvery. Only
	// meaningful with DataDir set.
	CompactEvery int

	// Deprecated: every durable tenant batches concurrent WAL appends
	// into shared preallocated segments, one fsync per commit tick; the
	// field is ignored.
	GroupCommit bool

	// GroupBatchBytes / GroupBatchDelay tune the group-commit batcher
	// (early-flush size and optional linger); 0 means the store defaults
	// (1 MiB, no linger). Only meaningful with DataDir set.
	GroupBatchBytes int
	GroupBatchDelay time.Duration

	// Role selects the replication role: empty/"single" (no replication),
	// RoleLeader (ship every store mutation to Replicas), or RoleFollower
	// (apply a leader's feed, serve reads only). Both replicated roles
	// require DataDir.
	Role string

	// Replicas lists follower base URLs a leader ships to.
	Replicas []string

	// LeaderURL is the leader's base URL, advertised by a follower in the
	// Leader header when shedding mutating requests.
	LeaderURL string

	// QuorumAck makes mutations wait (bounded by AckTimeout) until a
	// majority of the replication group — this leader plus Replicas —
	// holds their ops before responding; the X-Fusion-Ack response header
	// reports the achieved guarantee. Default is leader-ack: respond once
	// locally durable.
	QuorumAck bool

	// AckTimeout bounds the quorum wait per request; 0 means 2s. Clients
	// may lower (never raise) it per request via X-Fusion-Ack-Timeout.
	AckTimeout time.Duration

	// LagThreshold is the feed lag (records) past which a follower stops
	// reporting ready; 0 means repl.DefaultLagThreshold.
	LagThreshold uint64

	// FusionCache sizes the content-addressed fusion cache (entries):
	// generate requests are keyed by a canonical digest of (machines, f,
	// options) and exact repeats are served from the cache instead of
	// re-running Algorithm 2, with concurrent identical requests
	// coalescing onto one run. The cache is shared across tenants —
	// fusion output is a pure function of the input machines, and the
	// keys carry no tenant identity — and, with DataDir set, persists hot
	// entries under DataDir/.fcache so a restarted daemon serves popular
	// fusions without recomputation. 0 disables the cache (the historical
	// behavior and the zero-value default; fusiond passes -fusion-cache,
	// default 4096).
	FusionCache int

	// PrewarmZoo walks the built-in machine-zoo catalog through the cache
	// in the background after boot (on the shared pool), so first-hit
	// latency for catalog requests disappears. Ignored without
	// FusionCache > 0.
	PrewarmZoo bool

	// Pprof mounts net/http/pprof's handlers under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and must be an
	// operator's explicit choice (fusiond passes -pprof).
	Pprof bool

	// AccessLog bounds the in-memory access-log ring served at
	// GET /debug/log (records); 0 means 1024, negative disables the ring
	// (the endpoint then answers 404).
	AccessLog int

	// SlowRequest logs any request slower than this threshold and counts
	// it in fusiond_http_slow_requests_total; 0 disables slow logging.
	SlowRequest time.Duration

	// NoObserve disables the observability middleware entirely: no
	// request ids, no latency histograms, no access log, no /debug/log.
	// A measurement knob — the benchmark suite uses it to price the
	// middleware — not an operating mode.
	NoObserve bool

	// ReplClient overrides the shipping HTTP client (tests).
	ReplClient *http.Client

	// Rand supplies jitter in [0,1) for Retry-After hints and shipping
	// backoff; nil means math/rand/v2. Tests pin it.
	Rand func() float64
}

func (o Options) withDefaults() Options {
	if o.TenantHeader == "" {
		o.TenantHeader = "X-Fusion-Tenant"
	}
	if o.MaxClusters == 0 {
		o.MaxClusters = 64
	} else if o.MaxClusters < 0 {
		o.MaxClusters = 0 // sim.Registry convention: 0 = unbounded
	}
	if o.MaxTenants == 0 {
		o.MaxTenants = 64
	} else if o.MaxTenants < 0 {
		o.MaxTenants = 0 // 0 = unbounded past this point
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	return o
}

// tenant is one tenant's isolated slice of the daemon: an engine (its
// admission state and possibly its own pool) plus its cluster handles.
// store is the durable backend behind clusters (nil when the daemon is
// in-memory); the server owns its lifecycle — Close releases its open
// WAL handles after the final drain snapshots.
type tenant struct {
	name     string
	engine   *fusion.Engine
	clusters *sim.Registry
	store    *store.Dir

	// cacheHits counts this tenant's generate requests served without
	// running Algorithm 2 (cache hit or coalesced onto another's run);
	// cacheMisses counts the ones that computed (including cache-bypass
	// requests). Together they give the per-tenant hit rate in /healthz.
	cacheHits, cacheMisses atomic.Int64
}

// Server routes the v1 API onto per-tenant engines. Construct with New,
// mount Handler on an http.Server, and Close on the way out.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// obs is the observability plane (nil under Options.NoObserve);
	// handler is the mux wrapped in its middleware — every route,
	// including sheds and 404s, records through it. started anchors the
	// uptime reported by /healthz and /metrics.
	obs     *obsv.Obs
	handler http.Handler
	started time.Time

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	// fcache is the cross-tenant content-addressed fusion cache (nil when
	// Options.FusionCache is 0); cacheStore is its durable backend when
	// DataDir is set (a Dir used only for the .fcache namespace).
	// genFollower is the engine a follower answers /v1/generate on —
	// generation is pure, so followers need no tenant state for it.
	// prewarm tracks the background zoo pre-warmer for Close.
	fcache      *fcache.Cache
	cacheStore  *store.Dir
	genFollower *fusion.Engine
	prewarm     sync.WaitGroup

	// storeObs aggregates WAL flush observations (batch sizes, fsync
	// latency) across all tenant stores; nil on in-memory daemons.
	storeObs *storeObs

	// Replication state (see repl.go). role transitions leader ←
	// follower → promoting → leader; log and repLeader exist on leaders,
	// follower on followers. replMu orders role transitions against
	// request dispatch.
	replMu    sync.Mutex
	role      string
	epoch     uint64
	log       *store.Log
	repLeader *repl.Leader
	follower  *repl.Follower
}

// New returns a ready-to-serve Server. With Options.DataDir set it first
// recovers every tenant persisted there — rebuilding clusters from their
// specs, restoring snapshots, replaying WAL tails — and an error means
// the durable state could not be brought back (serving without it would
// silently shadow it).
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		tenants: make(map[string]*tenant),
		started: time.Now(),
	}
	if s.opts.DataDir != "" {
		s.storeObs = &storeObs{}
	}
	if err := s.initReplication(); err != nil {
		return nil, err
	}
	if err := s.initCache(); err != nil {
		s.Close()
		return nil, err
	}
	if s.role == RoleFollower {
		// Generation is pure (and now content-address cached), so a
		// follower answers /v1/generate locally instead of shedding 503 —
		// on its own engine with the daemon's admission limits, since
		// followers run no tenant engines.
		s.genFollower = s.mintEngine()
	}
	if !s.opts.NoObserve {
		s.obs = obsv.New(obsv.Options{
			LogSize:       s.opts.AccessLog,
			SlowThreshold: s.opts.SlowRequest,
			TenantHeader:  s.opts.TenantHeader,
			RoleFn:        s.currentRole,
		})
		s.mux.HandleFunc("GET /debug/log", s.obs.HandleDebugLog)
	}
	if s.opts.Pprof {
		obsv.RegisterPprof(s.mux)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /repl/status", s.handleReplStatus)
	s.mux.HandleFunc("GET /repl/feed", s.handleReplFeed)
	s.mux.HandleFunc("POST /repl/apply", s.handleReplApply)
	s.mux.HandleFunc("POST /repl/sync", s.handleReplSync)
	s.mux.HandleFunc("POST /repl/promote", s.handleReplPromote)
	s.mux.HandleFunc("POST /v1/generate", s.routed(s.withTenant(true, s.handleGenerate), s.handleGenerateFollower))
	s.mux.HandleFunc("POST /v1/clusters", s.routed(s.admitted(s.handleClusterCreate), nil))
	s.mux.HandleFunc("GET /v1/clusters/{id}", s.routed(s.withTenant(false, s.handleClusterGet), s.followerClusterGet))
	s.mux.HandleFunc("DELETE /v1/clusters/{id}", s.routed(s.withTenant(false, s.handleClusterDelete), nil))
	s.mux.HandleFunc("POST /v1/clusters/{id}/events", s.routed(s.admitted(s.handleClusterEvents), nil))
	s.mux.HandleFunc("POST /v1/clusters/{id}/recover", s.routed(s.admitted(s.handleClusterRecover), nil))
	if s.role != RoleFollower {
		// Followers do not recover tenants themselves — their data dir
		// belongs to the replication plane, which already rebuilt warm
		// mirrors in initReplication.
		if err := s.recoverTenants(); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.handler = http.Handler(s.mux)
	if s.obs != nil {
		s.handler = s.obs.Middleware(s.mux)
	}
	s.startShipping()
	s.startPrewarm()
	return s, nil
}

// initCache builds the shared fusion cache and, on a durable daemon,
// rehydrates it from DataDir/.fcache. Rehydration is tolerant by design —
// every entry is digest- and checksum-verified, the unverifiable are
// skipped — so only a broken data dir itself is fatal here.
func (s *Server) initCache() error {
	if s.opts.FusionCache <= 0 {
		return nil
	}
	fo := fcache.Options{MaxEntries: s.opts.FusionCache}
	if s.opts.DataDir != "" {
		cs, err := store.NewDir(s.opts.DataDir)
		if err != nil {
			return fmt.Errorf("server: fusion cache store: %w", err)
		}
		s.cacheStore = cs
		fo.Store = cs
	}
	s.fcache = fcache.New(fo)
	if _, err := s.fcache.LoadStore(); err != nil {
		return fmt.Errorf("server: loading fusion cache: %w", err)
	}
	return nil
}

// startPrewarm launches the background zoo pre-warmer. It runs on the
// shared pool and goes through the cache's singleflight, so it coalesces
// with (never duplicates) early live traffic, skips entries a restart
// already rehydrated, and stops between sets once Close begins.
func (s *Server) startPrewarm() {
	if s.fcache == nil || !s.opts.PrewarmZoo {
		return
	}
	s.prewarm.Add(1)
	go func() {
		defer s.prewarm.Done()
		s.fcache.PrewarmZoo(nil, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.closed
		})
	}()
}

// recoverTenants rematerializes every tenant found under DataDir.
// Recovered tenants are admitted even past MaxTenants — they exist
// durably; the cap gates new names only.
func (s *Server) recoverTenants() error {
	if s.opts.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || validTenantName(e.Name()) != nil {
			continue
		}
		s.mu.Lock()
		_, err := s.mintTenant(e.Name())
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("server: recovering tenant %q: %w", e.Name(), err)
		}
	}
	return nil
}

// Handler returns the HTTP handler serving the API: the route table
// behind the observability middleware, so every response — success,
// shed, or 404 — carries a request id and lands in the per-route
// latency histograms.
func (s *Server) Handler() http.Handler { return s.handler }

// Close drains the daemon for shutdown: new requests are refused with
// 503, queued requests fail over to 503, and Close blocks until every
// admitted request has finished and each tenant's dedicated pool is torn
// down. On a persistent server every cluster with a non-empty journal is
// then compacted into a final snapshot, so the next boot restores from
// snapshots instead of replaying WAL tails; the first snapshot failure
// is returned (restart still recovers — via replay — even then).
// Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	// The pre-warmer checks closed between catalog sets; wait it out so
	// shutdown never races a background generation onto the shared pool.
	s.prewarm.Wait()
	s.replMu.Lock()
	repLeader, follower := s.repLeader, s.follower
	s.replMu.Unlock()
	if repLeader != nil {
		repLeader.Close()
	}
	if follower != nil {
		follower.Close() //nolint:errcheck // follower fds; data is fsync'd
	}
	if s.genFollower != nil {
		s.genFollower.Close()
	}
	for _, t := range ts {
		t.engine.Close()
	}
	// Engines are drained: no request is mid-Update, so the snapshots
	// capture settled state. The store's open WAL handles are released
	// after — everything in them is already fsync'd, this is fd hygiene
	// for embedders that outlive their Servers (reopening lazily repairs
	// and resumes, so a late write would still be safe).
	var first error
	for _, t := range ts {
		if err := t.clusters.SnapshotAll(); err != nil && first == nil {
			first = err
		}
		if t.store != nil {
			t.store.Close() //nolint:errcheck // handles only; data is fsync'd
		}
	}
	if s.cacheStore != nil {
		s.cacheStore.Close() //nolint:errcheck // handles only; entries are fsync'd
	}
	return first
}

// validTenantName vets a client-supplied (or disk-found) tenant name.
// The charset keeps names header- and filesystem-safe; the leading-dot
// rule additionally rules out ".", "..", and hidden directories — tenant
// names become directories under DataDir, and a ".." name must never
// walk out of it.
func validTenantName(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	if name == "" || name[0] == '.' {
		return fmt.Errorf("tenant name %q must not start with '.'", name)
	}
	for _, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' {
			continue
		}
		return fmt.Errorf("tenant name contains %q; use [A-Za-z0-9._-]", c)
	}
	return nil
}

// tenant resolves the tenant a request addresses, lazily creating it
// only when create is set — read-only routes must not let probing
// headers mint tenants (each one holds an engine and a registry and
// lives until shutdown, so minting consumes MaxTenants slots
// permanently). A closed server resolves nothing.
func (s *Server) tenant(r *http.Request, create bool) (*tenant, error) {
	name := r.Header.Get(s.opts.TenantHeader)
	if name == "" {
		name = "default"
	}
	return s.tenantNamed(name, create)
}

// TenantEngine returns the engine of the named tenant, creating the
// tenant as its first workload request would. A caller holding its
// admission slots (Acquire/Release) saturates the tenant without
// depending on how long any request takes.
func (s *Server) TenantEngine(name string) (*fusion.Engine, error) {
	t, err := s.tenantNamed(name, true)
	if err != nil {
		return nil, err
	}
	return t.engine, nil
}

// tenantNamed is tenant for a resolved name.
func (s *Server) tenantNamed(name string, create bool) (*tenant, error) {
	if err := validTenantName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errShutdown
	}
	t, ok := s.tenants[name]
	if !ok {
		if !create {
			return nil, errUnknownTenant
		}
		if s.opts.MaxTenants > 0 && len(s.tenants) >= s.opts.MaxTenants {
			return nil, errTenantsFull
		}
		var err error
		if t, err = s.mintTenant(name); err != nil {
			return nil, fmt.Errorf("%w: %v", errTenantStore, err)
		}
	}
	return t, nil
}

// dirOptions assembles the store options every tenant Dir (leader or
// follower side) opens with, wiring the flush hook into the shared
// store-observability aggregate.
func (s *Server) dirOptions() store.DirOptions {
	o := store.DirOptions{
		MaxBatchBytes: s.opts.GroupBatchBytes,
		MaxBatchDelay: s.opts.GroupBatchDelay,
	}
	if s.storeObs != nil {
		o.OnFlush = s.storeObs.onFlush
	}
	return o
}

// mintTenant builds a tenant and inserts it; the caller holds s.mu.
// With DataDir set, the tenant's registry is store-backed and loaded
// from disk (a fresh tenant just gets an empty directory) — which is why
// minting can fail.
func (s *Server) mintTenant(name string) (*tenant, error) {
	// Every tenant gets its own engine — its own admission state, truthful
	// per-tenant /healthz numbers, and a drain that Server.Close can
	// actually wait on — while the pool stays shared (one bounded goroutine
	// set) unless Workers asks for per-tenant capacity.
	engine := s.mintEngine()
	var reg *sim.Registry
	var st *store.Dir
	if s.opts.DataDir != "" {
		var err error
		st, err = store.NewDirWith(filepath.Join(s.opts.DataDir, name), s.dirOptions())
		if err == nil {
			// On a replicating leader the registry journals through a Tee,
			// so every mutation it persists is also published to the op
			// feed. The Load inside LoadRegistry seeds the Tee's WAL
			// anchors as a side effect.
			var backend sim.Store = st
			if s.log != nil {
				backend = store.NewTee(name, st, s.log)
			}
			reg, err = engine.LoadRegistry(s.opts.MaxClusters, backend, s.opts.CompactEvery)
		}
		if err != nil {
			if st != nil {
				st.Close() //nolint:errcheck // releasing handles on the failure path
			}
			engine.Close()
			return nil, err
		}
	} else {
		reg = sim.NewRegistry(s.opts.MaxClusters)
	}
	t := &tenant{name: name, engine: engine, clusters: reg, store: st}
	s.tenants[name] = t
	return t, nil
}

var (
	errShutdown      = errors.New("server shutting down")
	errTenantsFull   = errors.New("tenant capacity reached")
	errUnknownTenant = errors.New("unknown tenant")
	errTenantStore   = errors.New("tenant storage failed")
)

// bufferedResponse captures a handler's response in memory so the
// network write happens only after every lock and admission slot has
// been released — a slow-reading client must never pin in-flight
// capacity or freeze a cluster's Handle lock on TCP backpressure.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	for k, vs := range b.header {
		w.Header()[k] = vs
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	w.Write(b.body.Bytes()) //nolint:errcheck // client gone; nothing left to do
}

// withTenant adapts a tenant-scoped handler, resolving (creating when
// create is set) the tenant and mapping resolution failures to HTTP
// statuses. The handler writes into a memory buffer; the real connection
// write happens after the handler (and any locks it held) has finished.
func (s *Server) withTenant(create bool, h func(t *tenant, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var pre uint64
		if s.log != nil {
			pre = s.log.Seq()
		}
		buf := &bufferedResponse{}
		s.serveTenant(create, h, buf, r)
		// If the request produced replicated ops, honor the configured
		// acknowledgement mode before the buffered response leaves —
		// headers are still mutable here.
		s.ackWait(buf, r, pre)
		buf.flush(w)
	}
}

func (s *Server) serveTenant(create bool, h func(t *tenant, w http.ResponseWriter, r *http.Request), w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r, create)
	if err != nil {
		switch {
		case errors.Is(err, errShutdown):
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, errTenantsFull):
			w.Header().Set("Retry-After", s.retryAfter())
			writeErr(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, errUnknownTenant):
			// Read-only route for a tenant that was never created:
			// whatever cluster it names does not exist.
			msg := err.Error()
			if id := r.PathValue("id"); id != "" {
				msg = fmt.Sprintf("no cluster %q: tenant has no state", id)
			}
			writeErr(w, http.StatusNotFound, msg)
		case errors.Is(err, errTenantStore):
			// The durable backend refused; that is the server's fault,
			// not the request's.
			writeErr(w, http.StatusInternalServerError, err.Error())
		default:
			writeErr(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	h(t, w, r)
}

// readBody buffers the request body in full under MaxBodyBytes, replacing
// r.Body with the in-memory copy. A false return means the error response
// was already written. Reading before any admission slot is taken means a
// client stalling its upload can never pin MaxInFlight capacity or block
// the shutdown drain — slots cover compute, not network.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// The buffered writer hides MaxBytesReader's internal
			// close signal from net/http; say it explicitly so the
			// server aborts instead of draining the oversized body
			// for keep-alive reuse.
			w.Header().Set("Connection", "close")
			writeErr(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			writeErr(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return true
}

// writeAdmissionErr maps an Engine.Acquire failure to its HTTP status:
// saturation sheds 429 + Retry-After, a draining engine 503.
func (s *Server) writeAdmissionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fusion.ErrQueueFull), errors.Is(err, fusion.ErrQueueTimeout):
		w.Header().Set("Retry-After", s.retryAfter())
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, fusion.ErrEngineClosed):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	default:
		// The client went away while queued; nobody is listening,
		// but close the exchange coherently anyway.
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	}
}

// admitted is withTenant plus the admission bracket: the handler only
// runs while holding one of the tenant engine's in-flight slots, and
// saturation is shed as 429 + Retry-After before any engine work starts.
// The request body is read in full before the slot is taken (readBody).
func (s *Server) admitted(h func(t *tenant, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return s.withTenant(true, func(t *tenant, w http.ResponseWriter, r *http.Request) {
		if !s.readBody(w, r) {
			return
		}
		if err := t.engine.Acquire(r.Context()); err != nil {
			s.writeAdmissionErr(w, err)
			return
		}
		defer t.engine.Release()
		h(t, w, r)
	})
}

// retryAfter hints how long a shed client should back off: the queue
// timeout rounded up when one is configured, else one second — then
// jittered uniformly up to double. Every 429/503 of one overload wave
// carries the same base, and well-behaved clients honor the hint
// exactly, so an unjittered value marches the whole herd back through
// the door in the same second; spreading the hint spreads the retries.
func (s *Server) retryAfter() string {
	secs := int64(1)
	if t := s.opts.QueueTimeout; t > 0 {
		secs = int64((t + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
	}
	add := int64(s.opts.Rand() * float64(secs+1))
	if add > secs {
		add = secs
	}
	return strconv.FormatInt(secs+add, 10)
}

// Health snapshots per-tenant engine statistics (also served at
// /healthz).
func (s *Server) Health() HealthResponse {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	closed := s.closed
	s.mu.Unlock()

	s.replMu.Lock()
	role, log, follower := s.role, s.log, s.follower
	s.replMu.Unlock()

	gen := fusion.GenerationCounters()
	h := HealthResponse{
		Status:        "ok",
		Role:          role,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Generation: GenerationHealth{
			Runs:         gen.Runs,
			Descents:     gen.Descents,
			Levels:       gen.Levels,
			ColdClosures: gen.ColdClosures,
			SeededJoins:  gen.SeededJoins,
			PrunedSkips:  gen.PrunedSkips,

			ImpliedCascades: gen.ImpliedCascades,
			SeededCascades:  gen.SeededCascades,
			ColdCascades:    gen.ColdCascades,
		},
		Tenants: make(map[string]TenantHealth, len(ts)),
	}
	if closed {
		h.Status = "draining"
	}
	if log != nil {
		h.Epoch = log.Epoch()
		h.Applied = log.Seq()
	}
	if role == RoleFollower {
		st := follower.Status()
		h.Epoch, h.Applied = st.Epoch, st.Applied
		for _, name := range follower.TenantNames() {
			reg, ok := follower.Registry(name)
			if !ok {
				continue
			}
			h.Tenants[name] = TenantHealth{Clusters: reg.Len(), ClusterMetrics: clusterMetrics(reg)}
		}
		return h
	}
	for _, t := range ts {
		th := TenantHealth{
			Workers:  t.engine.Workers(),
			InFlight: t.engine.InFlight(),
			Queued:   t.engine.Queued(),
			Clusters: t.clusters.Len(),
		}
		if s.fcache != nil {
			th.FusionCacheHits = t.cacheHits.Load()
			th.FusionCacheMisses = t.cacheMisses.Load()
			if total := th.FusionCacheHits + th.FusionCacheMisses; total > 0 {
				rate := float64(th.FusionCacheHits) / float64(total)
				th.FusionCacheHitRate = &rate
			}
		}
		th.ClusterMetrics = clusterMetrics(t.clusters)
		h.Tenants[t.name] = th
	}
	return h
}

// clusterMetrics is the /healthz form of reg's per-cluster counters, nil
// when reg holds no cluster. The conversion compiles only while
// ClusterMetrics mirrors sim.MetricsSnapshot field for field.
func clusterMetrics(reg *sim.Registry) map[string]ClusterMetrics {
	metrics := reg.Metrics()
	if len(metrics) == 0 {
		return nil
	}
	out := make(map[string]ClusterMetrics, len(metrics))
	for id, m := range metrics {
		out[id] = ClusterMetrics(m)
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// --- JSON plumbing --------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing left to do
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// readJSON decodes the request body into dst, rejecting unknown fields
// and trailing data. Size limits were already enforced by admitted()'s
// buffered read — every caller sits behind it, so the body here is an
// in-memory slice of at most MaxBodyBytes. A false return means the 400
// has already been written.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return false
	}
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "malformed request body: trailing data")
		return false
	}
	return true
}
