package server

// Wire types of the fusiond HTTP/JSON API (version v1). Every request
// body is a single JSON object; every response is either the documented
// result object or ErrorResponse with a non-2xx status.

// MachineSetRequest is the common way requests name the machine set to
// operate on: either a list of built-in model-zoo names or an inline
// machine specification in the .fsm text format — exactly one of the two.
type MachineSetRequest struct {
	// Zoo lists built-in machines by name (see fusion.ZooNames).
	Zoo []string `json:"zoo,omitempty"`
	// Spec is an inline .fsm machine specification.
	Spec string `json:"spec,omitempty"`
}

// GenerateRequest asks for an (f,m)-fusion of the machine set
// (POST /v1/generate — Algorithm 2).
type GenerateRequest struct {
	MachineSetRequest
	// F is the crash-fault budget the fusion must tolerate.
	F int `json:"f"`
	// NoCache bypasses the content-addressed fusion cache for this request:
	// the fusion is computed even when a cached result exists, and the
	// result is not inserted. The X-Fusion-Cache response header reports
	// "bypass". Output is bit-identical either way — this is a measurement
	// and debugging knob, not a consistency one.
	NoCache bool `json:"noCache,omitempty"`
}

// BackupResponse describes one generated backup machine as the closed
// partition it is: Blocks groups the top-machine states the backup does
// not distinguish, in the library's canonical order, so two generations
// agree byte-for-byte iff their fusions are identical.
type BackupResponse struct {
	States int     `json:"states"`
	Blocks [][]int `json:"blocks"`
}

// GenerateResponse is the fusion generation result.
type GenerateResponse struct {
	// N is the number of reachable top-machine states the partitions
	// divide.
	N int `json:"n"`
	F int `json:"f"`
	// Machines echoes the resolved machine names, in request order.
	Machines []string         `json:"machines"`
	Backups  []BackupResponse `json:"backups"`
}

// ClusterCreateRequest builds a simulated deployment
// (POST /v1/clusters).
type ClusterCreateRequest struct {
	MachineSetRequest
	F    int   `json:"f"`
	Seed int64 `json:"seed"`
}

// ClusterResponse describes a live cluster.
type ClusterResponse struct {
	ID string `json:"id"`
	// Servers lists all server names, originals first, backups last.
	Servers []string `json:"servers"`
	// Backups is the number of fusion backup servers.
	Backups int `json:"backups"`
	// Top is the number of reachable top-machine states.
	Top int `json:"top"`
	// Alphabet is the union event alphabet the cluster accepts.
	Alphabet []string `json:"alphabet"`
	// Step is the number of events applied so far.
	Step int `json:"step"`
	// States is each server's current visible state (-1 = crashed), in
	// Servers order.
	States []int `json:"states"`
}

// FaultRequest is one fault to inject: Kind is "crash" or "byzantine".
type FaultRequest struct {
	Server string `json:"server"`
	Kind   string `json:"kind"`
}

// EventsRequest drives a cluster (POST /v1/clusters/{id}/events): the
// explicit Events are broadcast first, then Random generates and
// broadcasts a seeded stream, then Faults strike — the paper's
// "environment pauses, faults hit at the cut" model.
type EventsRequest struct {
	Events []string `json:"events,omitempty"`
	// Random appends a deterministic pseudo-random stream over the
	// cluster's alphabet.
	Random *RandomEventsRequest `json:"random,omitempty"`
	Faults []FaultRequest       `json:"faults,omitempty"`
}

// RandomEventsRequest is a seeded generated event stream.
type RandomEventsRequest struct {
	Count int   `json:"count"`
	Seed  int64 `json:"seed"`
}

// EventsResponse reports the cluster state after the broadcast and any
// injections.
type EventsResponse struct {
	ID      string   `json:"id"`
	Applied int      `json:"applied"`
	Step    int      `json:"step"`
	Servers []string `json:"servers"`
	States  []int    `json:"states"`
	// Injected echoes the faults that were applied, in request order.
	Injected []FaultRequest `json:"injected,omitempty"`
}

// RecoverResponse is the outcome of a recovery round
// (POST /v1/clusters/{id}/recover — Algorithm 3).
type RecoverResponse struct {
	ID string `json:"id"`
	// TopState is the recovered global ⊤-state.
	TopState int `json:"topState"`
	// Restored lists servers whose state was repaired, sorted by name.
	Restored []string `json:"restored"`
	// Liars lists Byzantine servers caught lying.
	Liars []string `json:"liars"`
	// Consistent reports whether every server now matches the fault-free
	// oracle.
	Consistent bool     `json:"consistent"`
	Servers    []string `json:"servers"`
	States     []int    `json:"states"`
}

// TenantHealth is one tenant's live engine statistics plus the activity
// counters of each of its clusters.
type TenantHealth struct {
	Workers  int `json:"workers"`
	InFlight int `json:"inFlight"`
	Queued   int `json:"queued"`
	Clusters int `json:"clusters"`
	// FusionCacheHits counts this tenant's generate requests served from
	// the shared fusion cache (hit or coalesced) without running
	// Algorithm 2; FusionCacheMisses counts the ones that computed,
	// including explicit noCache bypasses. FusionCacheHitRate is
	// hits/(hits+misses). All omitted while the daemon runs without a
	// fusion cache.
	FusionCacheHits    int64    `json:"fusionCacheHits,omitempty"`
	FusionCacheMisses  int64    `json:"fusionCacheMisses,omitempty"`
	FusionCacheHitRate *float64 `json:"fusionCacheHitRate,omitempty"`
	// ClusterMetrics maps cluster id to its simulation counters; absent
	// when the tenant has no clusters.
	ClusterMetrics map[string]ClusterMetrics `json:"clusterMetrics,omitempty"`
}

// ClusterMetrics is one cluster's monotonic activity counters (a JSON
// view of sim.MetricsSnapshot).
type ClusterMetrics struct {
	EventsApplied    int64 `json:"eventsApplied"`
	FaultsInjected   int64 `json:"faultsInjected"`
	Recoveries       int64 `json:"recoveries"`
	FailedRecoveries int64 `json:"failedRecoveries"`
	ServersRestored  int64 `json:"serversRestored"`
	LiarsCaught      int64 `json:"liarsCaught"`
}

// GenerationHealth is the process-wide Algorithm 2 counter snapshot in
// the /healthz body: generation volume (runs, descents, levels) and how
// the descent engine's sharing tiers resolved the candidate closures —
// the within-level cascade split (implied + seeded + cold == closures on
// memoized descents) plus the cross-level reuses. All fields are
// monotonic since process start; it spans every tenant and engine, since
// generation is pure and the counters live beside the shared core path.
type GenerationHealth struct {
	Runs         int64 `json:"runs"`
	Descents     int64 `json:"descents"`
	Levels       int64 `json:"levels"`
	ColdClosures int64 `json:"coldClosures"`
	SeededJoins  int64 `json:"seededJoins"`
	PrunedSkips  int64 `json:"prunedSkips"`

	ImpliedCascades int64 `json:"impliedCascades"`
	SeededCascades  int64 `json:"seededCascades"`
	ColdCascades    int64 `json:"coldCascades"`
}

// HealthResponse is the GET /healthz body. On a follower, Tenants
// describes the replicated mirrors (engine fields zero — followers run
// no engines) and Epoch/Applied locate it on the leader's feed;
// Generation is process-wide on both roles.
type HealthResponse struct {
	Status        string                  `json:"status"`
	Role          string                  `json:"role,omitempty"`
	Epoch         uint64                  `json:"epoch,omitempty"`
	Applied       uint64                  `json:"applied,omitempty"`
	UptimeSeconds float64                 `json:"uptimeSeconds"`
	Goroutines    int                     `json:"goroutines"`
	Generation    GenerationHealth        `json:"generation"`
	Tenants       map[string]TenantHealth `json:"tenants"`
}

// ErrorResponse accompanies every non-2xx status.
type ErrorResponse struct {
	Error string `json:"error"`
}
