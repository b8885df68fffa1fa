// Package fusion is the public API of the fusion-based fault-tolerance
// library, a reproduction of Ogale, Balasubramanian and Garg, "A
// Fusion-based Approach for Tolerating Faults in Finite State Machines"
// (IPPS 2009).
//
// Given n deterministic finite state machines driven by a common event
// stream, the library generates m backup machines — an (f,m)-fusion — such
// that the system of n+m machines tolerates f crash faults or ⌊f/2⌋
// Byzantine faults, usually with far fewer backup states than the
// traditional n·f-replica approach:
//
//	sys, _ := fusion.NewSystem([]*fusion.Machine{a, b})
//	backups, _ := fusion.Generate(sys, 2)           // Algorithm 2
//	ms, _ := sys.FusionMachines(backups, "F")       // runnable DFSMs
//	...
//	state, _, _ := sys.RecoverStates(reports)       // Algorithm 3
//
// The facade re-exports the stable surface of the internal packages; see
// the package documentation of internal/core for the theory mapping.
//
// # Performance
//
// The Algorithm 2 hot path is allocation-light end to end: the fault graph
// keeps a per-weight edge-bucket index so both Dmin and WeakestEdges are
// answered from the weakest bucket (O(1) and O(|weakest|) per outer
// iteration) instead of O(N²) rescans; partitions carry a precomputed
// 64-bit hash so candidate dedup never materializes string keys; and the
// reachable-cross-product BFS dedups tuples under a mixed-radix uint64
// encoding instead of formatted strings. On the paper's Table 1 suites
// this is a 47–73% wall-clock reduction and an ~90% allocation reduction
// versus the straightforward implementation (see benchmarks/README.md for
// the measured before/after and the baseline-regression workflow under
// scripts/bench.sh).
//
// On top of that, Algorithm 2's candidate closures are shared at two
// tiers, each exact (bit-identical results to the cold path, pinned by
// equivalence suites) and each firing at a different scope:
//
//   - Within a descent level, one pass over the pair graph of the
//     quotient machine ⊤/p: a candidate pair {a,b} steps to
//     {δ(a,e), δ(b,e)} under every event, closures nest along these
//     edges, and all pairs of one strongly connected component (SCC)
//     share one closure. An iterative Tarjan search judges each SCC as
//     it is emitted: it fails in O(|Σ|) per pair when a member is a
//     forbidden pair or a successor failed, and otherwise runs one
//     guarded cascade that absorbs its successors' finished closures.
//     This is the all-cold level 0 of every descent, where the big-row
//     work lives: on Table 1 Row 4's 176-state top, 7 cascades decide
//     all 15,400 level-0 pairs. The pass is serial and deterministic.
//
//   - Across the levels of one descent, a DescentState: pairs whose
//     closure lost a weakest edge are pruned for the rest of the descent
//     (the violation only deepens as the partition coarsens), and
//     surviving candidates re-evaluate as cheap union-find joins of
//     their remembered closure with the new level's partition instead of
//     cold cascades.
//
// Nothing is shared across the descents of one generation: each descent
// closes its own level 0 under its own weakest-edge constraint, so failed
// successors decide most pairs and guarded cascades abort early.
//
// Both tiers report through process-wide counters (GenerationCounters,
// fusegen -descent-stats, fusiond /metrics and /healthz); the within-
// level tier's implied/seeded/cold split always sums to the cold-closure
// count and, like every other counter, is deterministic, so sharing
// effectiveness is inspectable in production.
//
// Every tier runs through one closure kernel (internal/partition): the
// level-0 pass runs it on the caller, and one pool fan-out over the block
// pairs runs it for every other level. Which weakest-edge check the
// kernel applies is chosen from the input, not by an option: up to 64
// weakest edges the cascade aborts at the first union that merges one
// (the guarded closure), past that each finished closure is filtered. The
// ablation knobs are GenerateOptions.NoIncremental (no cross-level reuse)
// and NoPairMemo (no within-level pass), each measured by a tracked
// benchmark row.
//
// All parallelism flows through one execution engine (see Engine): a
// persistent worker pool, sized to GOMAXPROCS by default, whose workers
// shard tasks through an atomic cursor and keep per-worker scratch
// (union-find forests, propagation stacks) alive across calls. The
// closure fan-out of Algorithm 2, the event broadcast of simulated
// clusters, and the sensor-network replay all run on it, so concurrent
// fusion-generation and simulation requests share a bounded goroutine set
// instead of spawning their own per call. Worker count never affects
// results: candidates are dedup'd in deterministic task order and
// simulations are reproducible per seed. Construct a dedicated Engine
// with EngineOptions{Workers: n} to isolate capacity, e.g. per tenant.
//
// Services put admission control in front of the pool: EngineOptions
// also carries MaxInFlight/QueueDepth/QueueTimeout limits enforced by
// Engine.Acquire/Release, so overload turns into bounded FIFO queueing
// and fast ErrQueueFull rejections, and Engine.Close drains in-flight
// work before tearing the pool down. The fusiond daemon (cmd/fusiond,
// internal/server) exposes generation, simulated deployments with fault
// injection, and recovery as HTTP/JSON endpoints on exactly this
// surface.
//
// Repeated generation is served from a content-addressed fusion cache
// (EngineOptions.Cache, internal/fcache). Algorithm 2 is a pure function
// of the machine set, f, and the semantics-affecting options, so a
// request is keyed by a versioned SHA-256 digest of exactly those inputs
// — transition tables included, tenant identity excluded — and a repeat
// is answered with the bit-identical partition list in microseconds
// instead of a fresh descent (BenchmarkGenerateCacheHit vs the cold
// BenchmarkTable1Row1). The cache is a size-bounded LRU with
// singleflight coalescing: N concurrent identical requests run one
// descent, and only the flight leader occupies an engine admission
// slot. With a store attached, entries persist under a .fcache
// namespace (atomic-rename, digest-verified on load), so a restarted
// daemon serves warm hits without recomputation; fusiond enables the
// cache by default (-fusion-cache), pre-warms the built-in zoo catalog
// at boot (-prewarm-zoo), and labels every generate response with an
// X-Fusion-Cache: hit|miss|coalesced|bypass header.
package fusion

import (
	"io"

	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/lattice"
	"repro/internal/machines"
	"repro/internal/partition"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Machine is a deterministic finite state machine (Definition 1 of the
// paper). Machines are immutable once built.
type Machine = dfsm.Machine

// Builder constructs machines transition by transition.
type Builder = dfsm.Builder

// Product is a reachable cross product R(A) with per-component projections.
type Product = dfsm.Product

// System is a set of machines together with their reachable cross product
// and the derived closed partitions; all fusion operations start here.
type System = core.System

// Partition is a closed partition of the top machine's state set — the
// internal representation of every machine ≤ ⊤.
type Partition = partition.P

// FaultGraph is the weighted distinguishability graph of Definition 3.
type FaultGraph = core.FaultGraph

// Report is one machine's contribution to recovery (its current state's
// set representation).
type Report = core.Report

// RecoverResult is the outcome of Algorithm 3.
type RecoverResult = core.RecoverResult

// GenerateOptions tunes Algorithm 2; the zero value is the paper's
// algorithm.
type GenerateOptions = core.GenerateOptions

// GenerationStats is a point-in-time snapshot of the process-wide
// Algorithm 2 counters: how many generation runs, descents, and levels
// this process has executed, and how much of the candidate-closure work
// the descent engine's sharing tiers absorbed (see the Performance
// section). All fields are monotonic.
type GenerationStats = core.GenerationStats

// GenerationCounters snapshots the process-wide generation counters.
// Subtracting two snapshots brackets the work of the calls in between;
// cmd/fusegen's -descent-stats flag and fusiond's /metrics endpoint are
// both built on it.
func GenerationCounters() GenerationStats { return core.GenerationCounters() }

// Cluster is the simulated distributed deployment (servers + fusion
// backups + fault injection + recovery).
type Cluster = sim.Cluster

// ClusterSpec is the durable, JSON-serializable record a Cluster can be
// rebuilt from (machine definitions, fault capacity, seed).
type ClusterSpec = sim.ClusterSpec

// Store is the durable backend behind a store-backed cluster registry;
// internal/store provides the in-memory and file implementations.
type Store = sim.Store

// Fault describes an injected failure.
type Fault = trace.Fault

// FaultKind selects crash or Byzantine behaviour.
type FaultKind = trace.FaultKind

// Crash and Byzantine are the paper's two fault models.
const (
	Crash     = trace.Crash
	Byzantine = trace.Byzantine
)

// Lattice is the enumerated closed-partition lattice (Fig. 3).
type Lattice = lattice.Lattice

// NewMachine builds a machine from explicit state/event/transition tables.
func NewMachine(name string, states, events []string, delta [][]int, initial int) (*Machine, error) {
	return dfsm.NewMachine(name, states, events, delta, initial)
}

// NewBuilder starts an incremental machine definition.
func NewBuilder(name string) *Builder { return dfsm.NewBuilder(name) }

// NewSystem computes the reachable cross product of the machines and
// prepares them for fusion generation and recovery.
func NewSystem(ms []*Machine) (*System, error) { return core.NewSystem(ms) }

// Generate runs Algorithm 2: the minimal set of backup machines making the
// system tolerate f crash faults (⌊f/2⌋ Byzantine faults). It runs on the
// default engine's worker pool.
func Generate(sys *System, f int) ([]Partition, error) {
	return DefaultEngine().Generate(sys, f)
}

// GenerateWithOptions is Generate with explicit options, on the default
// engine unless opts.Pool says otherwise.
func GenerateWithOptions(sys *System, f int, opts GenerateOptions) ([]Partition, error) {
	return core.GenerateFusion(sys, f, opts)
}

// Recover runs Algorithm 3 over the reports and returns the winning
// ⊤-state with liar identification.
func Recover(n int, reports []Report) (*RecoverResult, error) {
	return core.Recover(n, reports)
}

// DetectionResult is the outcome of DetectFaults.
type DetectionResult = core.DetectionResult

// DetectFaults checks a report set for corruption without guessing: with
// distance d the system detects up to d−1 corrupted states even when it
// can only correct ⌊(d−1)/2⌋ of them (an extension mirroring classical
// coding theory; see internal/core/detect.go).
func DetectFaults(n int, reports []Report) (*DetectionResult, error) {
	return core.DetectFaults(n, reports)
}

// SetRepresentation runs Algorithm 1: expresses each state of a (a ≤ top)
// as the set of top states mapping onto it.
func SetRepresentation(top, a *Machine) ([][]int, error) {
	return core.SetRepresentation(top, a)
}

// BuildFaultGraph constructs the fault graph over n top states for a
// machine set given as partitions.
func BuildFaultGraph(n int, parts []Partition) *FaultGraph {
	return core.BuildFaultGraph(n, parts)
}

// ReachableCrossProduct computes R(machines) with projections.
func ReachableCrossProduct(ms []*Machine) (*Product, error) {
	return dfsm.ReachableCrossProduct(ms)
}

// NewCluster builds a simulated deployment tolerating f crash faults, on
// the default engine's worker pool.
func NewCluster(ms []*Machine, f int, seed int64) (*Cluster, error) {
	return DefaultEngine().NewCluster(ms, f, seed)
}

// BuildLattice enumerates the closed-partition lattice of a machine
// (small tops only; maxNodes 0 means 4096).
func BuildLattice(top *Machine, maxNodes int) (*Lattice, error) {
	return lattice.Build(top, maxNodes)
}

// ParseSpec reads machines in the .fsm text format.
func ParseSpec(r io.Reader) ([]*Machine, error) { return spec.Parse(r) }

// FormatSpec renders machines in the .fsm text format.
func FormatSpec(ms []*Machine) string { return spec.Format(ms) }

// ZooMachine returns a machine from the built-in model zoo by name (MESI,
// TCP, 0-Counter, ...); ZooNames lists the options.
func ZooMachine(name string) (*Machine, error) { return machines.Get(name) }

// ZooNames lists the built-in model zoo.
func ZooNames() []string { return machines.Names() }

// ReplicationStateSpace returns (Π|Mi|)^f — the backup state space the
// replication baseline needs for f crash faults (Section 6's comparison
// metric).
func ReplicationStateSpace(ms []*Machine, f int) uint64 {
	return replication.CrashStateSpace(ms, f)
}

// Plan is a capacity-planning summary: backup counts, sizes and state
// spaces for fusion vs replication.
type Plan = core.Plan

// PlanFusion generates the fusion for f crash faults and summarizes its
// cost against replication.
func PlanFusion(sys *System, f int) (*Plan, error) { return core.PlanFusion(sys, f) }
