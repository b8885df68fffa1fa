// Benchmarks regenerating every table and figure of the paper's evaluation
// (cmd/paper's -experiment flag lists the experiments). Run:
//
//	go test -bench=. -benchmem
//
// The Table1 rows measure full Algorithm 2 generation on the paper's five
// machine suites; the Fig benches measure the constituent operations; the
// Ablation benches quantify the implementation's design choices.
package fusion_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	fusion "repro"
	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/experiments"
	"repro/internal/fcache"
	"repro/internal/lattice"
	"repro/internal/machines"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// --- Figures -------------------------------------------------------------

// BenchmarkFig1ModCounters measures fusion generation for the motivating
// example: two mod-3 counters, f = 1 (experiment fig1).
func BenchmarkFig1ModCounters(b *testing.B) {
	sys := mustSystem(b, "0-Counter", "1-Counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F, err := fusion.Generate(sys, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(F) != 1 {
			b.Fatal("wrong fusion")
		}
	}
}

// BenchmarkFig2CrossProduct measures reachable-cross-product construction
// on the Fig. 2 machines (experiment fig2).
func BenchmarkFig2CrossProduct(b *testing.B) {
	ms := mustMachines(b, "A", "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fusion.ReachableCrossProduct(ms)
		if err != nil || p.Top.NumStates() != 4 {
			b.Fatal("bad product")
		}
	}
}

// BenchmarkFig3Lattice measures full closed-partition lattice enumeration
// of the Fig. 2 top (experiment fig3).
func BenchmarkFig3Lattice(b *testing.B) {
	sys := mustSystem(b, "A", "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := lattice.Build(sys.Top, 0)
		if err != nil || l.Size() < 5 {
			b.Fatal("bad lattice")
		}
	}
}

// BenchmarkFig4FaultGraphs measures fault-graph construction and dmin over
// the Fig. 2 system (experiment fig4).
func BenchmarkFig4FaultGraphs(b *testing.B) {
	sys := mustSystem(b, "A", "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		if g.Dmin() != 1 {
			b.Fatal("bad dmin")
		}
	}
}

// BenchmarkFig5SetRepresentation measures Algorithm 1 on the TCP machine
// against the MESI+TCP+A+B top (experiment fig5 at realistic scale).
func BenchmarkFig5SetRepresentation(b *testing.B) {
	sys := mustSystem(b, "MESI", "TCP", "A", "B")
	tcp := sys.Machines[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SetRepresentation(sys.Top, tcp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 -------------------------------------------------------------

func benchTableRow(b *testing.B, suite machines.Suite) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunTableRow(suite)
		if err != nil {
			b.Fatal(err)
		}
		if row.Fusion >= row.Replication {
			b.Fatalf("%s: fusion %d not smaller than replication %d", suite.Name, row.Fusion, row.Replication)
		}
	}
}

// BenchmarkTable1Row1 .. Row5 regenerate the five rows of the results
// table: system construction + Algorithm 2 + state-space accounting
// (experiments tab1.1–tab1.5).
func BenchmarkTable1Row1(b *testing.B) { benchTableRow(b, machines.PaperSuites()[0]) }
func BenchmarkTable1Row2(b *testing.B) { benchTableRow(b, machines.PaperSuites()[1]) }
func BenchmarkTable1Row3(b *testing.B) { benchTableRow(b, machines.PaperSuites()[2]) }
func BenchmarkTable1Row4(b *testing.B) { benchTableRow(b, machines.PaperSuites()[3]) }
func BenchmarkTable1Row5(b *testing.B) { benchTableRow(b, machines.PaperSuites()[4]) }

// BenchmarkSensorCountersTop runs Algorithm 2 (f = 1) on the reachable
// product of three mod-k sensor counters, N = k³ states (512 and 729),
// whose fusion is the k-state sum counter: the large-top row, where level
// 0's pass has N(N-1)/2 nodes and each seeded level joins few distinct
// seeds for many pairs.
func BenchmarkSensorCountersTop(b *testing.B) {
	for _, k := range []int{8, 9} {
		sys, err := core.NewSystem(machines.SensorCounters(3, k))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", sys.N()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				F, err := core.GenerateFusion(sys, 1, core.GenerateOptions{})
				if err != nil || len(F) != 1 || F[0].NumBlocks() != k {
					b.Fatalf("fusion %v, %v; want one %d-state machine", F, err, k)
				}
			}
		})
	}
}

// --- Sensor network (introduction / conclusion) ---------------------------

// BenchmarkSensorNetworkFusion measures fusion-based recovery of crashed
// sensors in the 100-counter network (experiment sensor).
func BenchmarkSensorNetworkFusion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sensor(100, 3, 1, int64(i))
		if err != nil || !r.RecoveryOK {
			b.Fatalf("sensor recovery failed: %v", err)
		}
	}
}

// BenchmarkSensorNetworkScale sweeps the network size (shape: linear in n).
func BenchmarkSensorNetworkScale(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.Sensor(n, 5, 2, int64(i))
				if err != nil || !r.RecoveryOK {
					b.Fatal("recovery failed")
				}
			}
		})
	}
}

// --- Recovery (Section 5.2) ----------------------------------------------

func recoveryCluster(b *testing.B, f int) *sim.Cluster {
	b.Helper()
	ms := mustMachines(b, "MESI", "TCP", "A", "B")
	c, err := sim.NewCluster(ms, f, 7)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(11, ms)
	c.ApplyAll(gen.Take(128))
	return c
}

// BenchmarkRecoverCrash measures one crash-recovery round (Algorithm 3 plus
// state restoration) on the MESI+TCP+A+B cluster (experiment recov).
func BenchmarkRecoverCrash(b *testing.B) {
	c := recoveryCluster(b, 2)
	names := c.ServerNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inject(trace.Fault{Server: names[i%len(names)], Kind: trace.Crash})
		if _, err := c.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverByzantine measures one Byzantine round with liar
// identification (experiment recov).
func BenchmarkRecoverByzantine(b *testing.B) {
	c := recoveryCluster(b, 2)
	names := c.ServerNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inject(trace.Fault{Server: names[i%len(names)], Kind: trace.Byzantine})
		if _, err := c.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverAlgorithm3 isolates the vote itself at |top| = 176.
func BenchmarkRecoverAlgorithm3(b *testing.B) {
	sys := mustSystem(b, "MESI", "TCP", "A", "B")
	var reports []core.Report
	for i := range sys.Machines {
		r, err := sys.ReportFor(i, sys.Machines[i].Initial())
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Recover(sys.N(), reports); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationExhaustiveSearch compares the greedy lattice descent of
// Algorithm 2 against the exponential exhaustive minimal-fusion search of
// the authors' earlier work (experiment abl2; small top only).
func BenchmarkAblationExhaustiveSearch(b *testing.B) {
	sys := mustSystem(b, "0-Counter", "1-Counter")
	g := core.BuildFaultGraph(sys.N(), sys.Parts)
	required := g.WeakestEdges()
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := core.GreedyDescent(sys, required)
			if m.NumBlocks() != 3 {
				b.Fatal("bad descent")
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best, err := core.ExhaustiveMinimalFusions(sys, 1<<20)
			if err != nil || best[0].NumBlocks() != 3 {
				b.Fatal("bad exhaustive result")
			}
		}
	})
}

// BenchmarkWeakestEdgeDescent measures one greedy descent of Algorithm 2
// (experiment abl1 family) on a 144-state top with a dense constraint:
// the suite's 720 weakest edges, each a state pair every candidate must
// separate. It is the kernel-level row for large forbidden lists, where
// level 0's pair-graph pass gives forbidden pairs free verdicts and every
// other closure is checked once it is finished.
func BenchmarkWeakestEdgeDescent(b *testing.B) {
	sys := mustSystem(b, "MESI", "1-Counter", "0-Counter", "ShiftRegister")
	required := core.BuildFaultGraph(sys.N(), sys.Parts).WeakestEdges()
	if len(required) != 720 {
		b.Fatalf("%d weakest edges, want 720", len(required))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := core.GreedyDescent(sys, required); m.NumBlocks() == sys.N() {
			b.Fatal("descent never left ⊤")
		}
	}
}

// BenchmarkLowerCoverVsMergeClosures quantifies the fast-path decision in
// GenerateFusion: merge closures without the maximality filter. Both
// sub-rows run the same level-0 pair-graph pass at ⊤, so their difference
// is the maximality filter alone.
func BenchmarkLowerCoverVsMergeClosures(b *testing.B) {
	sys := mustSystem(b, "0-Counter", "1-Counter")
	top := partition.Singletons(sys.N())
	b.Run("mergeClosures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := partition.MergeClosures(sys.Top, top, nil); len(got) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("lowerCover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := partition.LowerCover(sys.Top, top); len(got) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- Substrate micro-benchmarks -------------------------------------------

// BenchmarkCrossProductLarge measures R() construction on the largest
// paper suite (row 3's five machines).
func BenchmarkCrossProductLarge(b *testing.B) {
	ms := mustMachines(b, "1-Counter", "0-Counter", "Divider", "A", "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusion.ReachableCrossProduct(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosure measures one Hartmanis–Stearns closure on a 176-state
// top (the inner operation of Algorithm 2).
func BenchmarkClosure(b *testing.B) {
	sys := mustSystem(b, "MESI", "TCP", "A", "B")
	p := partition.Singletons(sys.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := partition.CloseMergingStates(sys.Top, p, 0, (i%(sys.N()-1))+1)
		if c.NumBlocks() < 1 {
			b.Fatal("bad closure")
		}
	}
}

// BenchmarkApplyAll measures broadcast event application across the
// simulated cluster on the shared execution engine: small batches run
// inline, large windows stream through the persistent pool's server
// shards (one task per shard instead of a goroutine per server per call).
func BenchmarkApplyAll(b *testing.B) {
	ms := mustMachines(b, "MESI", "TCP", "A", "B")
	c, err := sim.NewCluster(ms, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(5, ms)
	for _, size := range []int{64, 4096} {
		batch := gen.Take(size)
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.ApplyAll(batch)
			}
		})
	}
}

// BenchmarkHandleUpdateDurable measures durable cluster mutation
// throughput with 8 handles appending WAL records concurrently, the
// fusiond write path under multi-tenant load, through the group-commit
// WAL (concurrent AppendEvents coalesce into one vectored write + one
// fsync per commit tick, preallocated segments). The reported fsyncs/op custom metric counts real fsyncs per Update —
// on fast filesystems where wall-clock barely moves, that ratio is the
// durability bill being split.
func BenchmarkHandleUpdateDurable(b *testing.B) {
	for _, mode := range []struct {
		name   string
		linger time.Duration
	}{
		{"grouped", 0},
		// linger trades half a millisecond of ack latency for full
		// batches (-group-batch-delay): on one core the woken waiters
		// need a beat to re-stage before the next leader claims the
		// queue, so this is where the fsync amortization shows up.
		{"grouped-linger", 500 * time.Microsecond},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.NewDirWith(b.TempDir(), store.DirOptions{MaxBatchDelay: mode.linger})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// Huge compactEvery: measure the append path, not snapshots.
			r := sim.NewStoredRegistry(0, st, 1<<30)
			ms := mustMachines(b, "0-Counter", "1-Counter")
			const handles = 8
			hs := make([]*sim.Handle, handles)
			for i := range hs {
				c, err := sim.NewCluster(ms, 1, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				id, err := r.Add(c)
				if err != nil {
					b.Fatal(err)
				}
				h, ok := r.Get(id)
				if !ok {
					b.Fatalf("handle %s missing", id)
				}
				hs[i] = h
			}
			window := trace.NewGenerator(3, ms).Take(4)
			base := st.WALStats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, handles)
			for i, h := range hs {
				// Spread b.N across the 8 writers, remainder to the low ids.
				n := b.N / handles
				if i < b.N%handles {
					n++
				}
				wg.Add(1)
				go func(i, n int, h *sim.Handle) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						if err := h.Update(func(tx *sim.Tx) error {
							tx.ApplyAll(window)
							return nil
						}); err != nil {
							errs[i] = err
							return
						}
					}
				}(i, n, h)
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			ws := st.WALStats()
			b.ReportMetric(float64(ws.Fsyncs-base.Fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// BenchmarkServerGenerate measures one fusiond generate round trip fully
// in-process (request decode → admission → Algorithm 2 on the engine →
// response encode), no network: the service-layer overhead on top of the
// BenchmarkFig1ModCounters workload it wraps.
func BenchmarkServerGenerate(b *testing.B) {
	srv, err := server.New(server.Options{MaxInFlight: 4, QueueDepth: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"zoo":["0-Counter","1-Counter"],"f":1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/v1/generate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServerGenerateNoObsv is BenchmarkServerGenerate with the
// observability middleware disabled (Options.NoObserve): the same
// round trip minus request-id stamping, histogram recording, and the
// access-log append. The delta against BenchmarkServerGenerate is the
// middleware's per-request bill, budgeted at < 2µs/req in
// benchmarks/README.md.
func BenchmarkServerGenerateNoObsv(b *testing.B) {
	srv, err := server.New(server.Options{MaxInFlight: 4, QueueDepth: 16, NoObserve: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"zoo":["0-Counter","1-Counter"],"f":1}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/v1/generate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkGenerateCacheHit measures a content-addressed cache hit on the
// Table 1 Row 1 generation the way fusiond serves it: core.RequestDigest
// over the machine tables, then an fcache.Cache.Do hit. This is the
// per-request cost fusiond pays once a fusion is warm — compare against
// BenchmarkTable1Row1 (the cold run it replaces) for the caching win.
func BenchmarkGenerateCacheHit(b *testing.B) {
	suite := machines.PaperSuites()[0]
	ms, err := machines.SuiteMachines(suite)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		b.Fatal(err)
	}
	cache := fcache.New(fcache.Options{})
	compute := func() (fcache.Entry, error) {
		parts, err := fusion.Generate(sys, suite.F)
		return fcache.Entry{N: sys.N(), Parts: parts}, err
	}
	key := core.RequestDigest(ms, suite.F, core.GenerateOptions{})
	if _, _, err := cache.Do(key, compute); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, out, err := cache.Do(core.RequestDigest(ms, suite.F, core.GenerateOptions{}), compute)
		if err != nil {
			b.Fatal(err)
		}
		if out != fcache.Hit || len(ent.Parts) == 0 {
			b.Fatalf("outcome %v with %d partitions, want a non-empty hit", out, len(ent.Parts))
		}
	}
}

// BenchmarkServerGenerateCached is BenchmarkServerGenerate with the
// fusion cache on and warm: the full HTTP round trip when Algorithm 2 is
// skipped — decode, digest, lookup, encode. The delta against
// BenchmarkServerGenerate isolates what caching buys the service path.
func BenchmarkServerGenerateCached(b *testing.B) {
	srv, err := server.New(server.Options{MaxInFlight: 4, QueueDepth: 16, FusionCache: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"zoo":["0-Counter","1-Counter"],"f":1}`)
	warm := httptest.NewRequest("POST", "/v1/generate", bytes.NewReader(body))
	ww := httptest.NewRecorder()
	h.ServeHTTP(ww, warm)
	if ww.Code != 200 {
		b.Fatalf("warm-up status %d: %s", ww.Code, ww.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/v1/generate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkWeakestEdges measures the fault graph's queries on the
// 176-state top. "query" is one WeakestEdges call, a scan of all N(N−1)/2
// same-block counts into an exactly sized result; "addRemove" cycles one
// machine through Add (its intra-block pairs only), WeakestEdges and
// Remove (a scan of every pair). Algorithm 2 calls neither WeakestEdges
// nor Remove: it collects its weakest-edge list once and grows it as it
// adds machines, so BenchmarkFaultGraphBuild is the row its graph cost
// follows.
func BenchmarkWeakestEdges(b *testing.B) {
	sys := mustSystem(b, "MESI", "TCP", "A", "B")
	b.Run("query", func(b *testing.B) {
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(g.WeakestEdges()) == 0 {
				b.Fatal("no weakest edges")
			}
		}
	})
	b.Run("addRemove", func(b *testing.B) {
		g := core.BuildFaultGraph(sys.N(), sys.Parts)
		p := sys.Parts[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Add(p)
			if len(g.WeakestEdges()) == 0 {
				b.Fatal("no weakest edges")
			}
			g.Remove(p)
		}
	})
}

// BenchmarkFaultGraphBuild measures BuildFaultGraph and Dmin, the fault
// graph Algorithm 2 builds before its first descent, on a seeded random
// system drawn as perfbench's gen-cold workload draws its random ops: two
// or three machines over a partly shared alphabet whose reachable product
// has 300 to 400 states (seed 1 draws 376 states from two machines of 20
// and 19 states).
func BenchmarkFaultGraphBuild(b *testing.B) {
	sys := randomGenColdSystem(b, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.BuildFaultGraph(sys.N(), sys.Parts).Dmin() < 1 {
			b.Fatal("a system of machines with more than one state has dmin 0")
		}
	}
}

// randomGenColdSystem draws two or three random machines, each on events
// a, b and one private event, until their reachable product has 300 to 400
// states.
func randomGenColdSystem(tb testing.TB, rng *rand.Rand) *core.System {
	tb.Helper()
	for {
		ms := make([]*dfsm.Machine, 2+rng.Intn(2))
		for j := range ms {
			states := 4 + rng.Intn(6)
			if len(ms) == 2 {
				states = 14 + rng.Intn(8)
			}
			ms[j] = dfsm.RandomMachine(rng, fmt.Sprintf("R%d", j), states, []string{"a", "b", fmt.Sprintf("x%d", j)})
		}
		sys, err := core.NewSystem(ms)
		if err != nil {
			tb.Fatal(err)
		}
		if sys.N() >= 300 && sys.N() <= 400 {
			return sys
		}
	}
}

// --- helpers ---------------------------------------------------------------

func mustMachines(tb testing.TB, names ...string) []*dfsm.Machine {
	tb.Helper()
	ms := make([]*dfsm.Machine, len(names))
	for i, n := range names {
		m, err := machines.Get(n)
		if err != nil {
			tb.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

func mustSystem(tb testing.TB, names ...string) *core.System {
	tb.Helper()
	sys, err := core.NewSystem(mustMachines(tb, names...))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}
