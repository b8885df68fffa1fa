package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	fusion "repro"
	"repro/internal/machines"
)

// suiteDigests pins the partitions Algorithm 2 returns for the five
// Table 1 suites. Every optimisation tier must reproduce them bit for
// bit, so a run that computes anything else fails.
var suiteDigests = map[string]string{
	"tab1.1": "e4e06746054109e56d0b9af198fe8d692cfde36a3e8d591c320f19470e9c9d03",
	"tab1.2": "8950568d5123bf26edc4fa0b584e969645f9358e750d0b73a1ea39643d0f9b21",
	"tab1.3": "67bd9c3f0f2ea48a97fb6f9be64fb16ddd6d0ea749bac37ab073d04a1fafb915",
	"tab1.4": "6d47882e3f53412f4c08fb9c89635f3edbacd3eb0072b68471ce0d58affbd8df",
	"tab1.5": "ce09e6a85fe38aa813b95b9b64e1868d12f04069cfd5f8400122008a703d4b1b",
}

// partsDigest identifies a generation result: the top size, the fault
// budget, and every backup partition's blocks in the library's
// canonical order.
func partsDigest(n, f int, parts []fusion.Partition) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d f=%d\n", n, f)
	for _, p := range parts {
		fmt.Fprintln(h, p.Blocks())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genWindow generates fusions from the seed's stream, starting at
// operation first, until dur has passed. Building each operation's
// machines and checking its result are the benchmark's own work and are
// not timed; an operation's latency is NewSystem plus Engine.Generate.
// Each result is checked as soon as it is made and only its digest is
// kept. With acc non-nil the calls are traced.
func genWindow(eng *fusion.Engine, seed int64, first int, dur time.Duration, acc *genAcc) (*genRun, error) {
	w := &genRun{bins: newBins(dur, 0), verified: make(map[string]bool)}
	begin := time.Now()
	for i := first; time.Since(begin) < dur; i++ {
		op := genOpAt(seed, i)
		start := time.Now()
		sys, parts, err := acc.generate(eng, op.ms, op.F, fmt.Sprintf("gen-%d", i))
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", i, err)
		}
		w.busy += d
		w.bins.add(time.Since(begin), d)
		w.check(op, sys, parts)
	}
	w.elapsed = time.Since(begin)
	return w, nil
}

// genRun is one gen-cold window: its latency bins, each result's
// digest, the checks that failed, and the time spent inside operations.
type genRun struct {
	bins     *bins
	digests  []string
	verified map[string]bool // digest → passed IsFusion
	failed   int64
	errs     []error
	busy     time.Duration
	elapsed  time.Duration
}

// check verifies one result: every Table 1 suite matches its pinned
// digest, and every result is a valid fusion (checked once per digest).
func (w *genRun) check(op genOp, sys *fusion.System, parts []fusion.Partition) {
	digest := partsDigest(sys.N(), op.F, parts)
	w.digests = append(w.digests, digest)
	fail := func(err error) {
		w.failed++
		if len(w.errs) < 8 {
			w.errs = append(w.errs, err)
		}
	}
	if op.Suite != "" && digest != suiteDigests[op.Suite] {
		fail(fmt.Errorf("gen-cold op %d (%s): partition digest %s, pinned %s", op.Index, op.Suite, digest, suiteDigests[op.Suite]))
		return
	}
	if w.verified[digest] {
		return
	}
	if ok, err := sys.IsFusion(parts, op.F); err != nil || !ok {
		fail(fmt.Errorf("gen-cold op %d: result is not an (f=%d)-fusion (err %v)", op.Index, op.F, err))
		return
	}
	w.verified[digest] = true
}

// count folds the window's operations and failed checks into o.
func (w *genRun) count(o *outcome) {
	o.attempted += w.bins.total()
	o.failed += w.failed
	o.checkErrs = append(o.checkErrs, w.errs...)
}

// genAcc traces generations: spans around NewSystem and Generate, and
// the allocation, CPU and Algorithm 2 counter deltas across Generate.
// A nil *genAcc runs the calls untraced.
type genAcc struct {
	rec      *recorder
	ops      int
	mallocs  uint64
	bytes    uint64
	cpu      time.Duration
	wall     time.Duration
	counters fusion.GenerationStats
}

func (a *genAcc) generate(eng *fusion.Engine, ms []*fusion.Machine, f int, req string) (*fusion.System, []fusion.Partition, error) {
	if a == nil {
		sys, err := fusion.NewSystem(ms)
		if err != nil {
			return nil, nil, err
		}
		parts, err := eng.Generate(sys, f)
		return sys, parts, err
	}
	root := a.rec.id()
	start := a.rec.now()
	var sys *fusion.System
	var err error
	a.rec.timed(root, "dfsm.NewSystem", req, func() { sys, err = fusion.NewSystem(ms) })
	if err != nil {
		return nil, nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, cpu0 := fusion.GenerationCounters(), cpuTime()
	var parts []fusion.Partition
	wall := a.rec.timed(root, "core.Generate", req, func() { parts, err = eng.Generate(sys, f) })
	cpu1, c1 := cpuTime(), fusion.GenerationCounters()
	runtime.ReadMemStats(&m1)
	a.rec.record(root, 0, "gen.op", req, start, a.rec.now())
	if err != nil {
		return nil, nil, err
	}
	a.ops++
	a.mallocs += m1.Mallocs - m0.Mallocs
	a.bytes += m1.TotalAlloc - m0.TotalAlloc
	a.cpu += cpu1 - cpu0
	a.wall += wall
	a.counters.Levels += c1.Levels - c0.Levels
	a.counters.ColdClosures += c1.ColdClosures - c0.ColdClosures
	a.counters.SeededJoins += c1.SeededJoins - c0.SeededJoins
	a.counters.PrunedSkips += c1.PrunedSkips - c0.PrunedSkips
	a.counters.TopCacheHits += c1.TopCacheHits - c0.TopCacheHits
	a.counters.ImpliedCascades += c1.ImpliedCascades - c0.ImpliedCascades
	a.counters.ColdCascades += c1.ColdCascades - c0.ColdCascades
	return sys, parts, nil
}

// report sets the dfsm, core, partition and exec layer metrics.
func (a *genAcc) report(o *outcome, st *spanStats) {
	if a.ops == 0 {
		return
	}
	n := float64(a.ops)
	c := a.counters
	o.metrics["dfsm.system_ms"] = st.medianUS("dfsm.NewSystem") / 1000
	o.metrics["core.generate_ms"] = st.medianUS("core.Generate") / 1000
	o.metrics["core.allocs_per_op"] = float64(a.mallocs) / n
	o.metrics["core.alloc_bytes_per_op"] = float64(a.bytes) / n
	o.metrics["partition.closures_per_op"] = float64(c.ColdClosures) / n
	o.metrics["partition.implied_frac"] = ratio(float64(c.ImpliedCascades), float64(c.ColdClosures))
	o.metrics["partition.cold_cascades_per_op"] = float64(c.ColdCascades) / n
	o.metrics["partition.seeded_joins_per_op"] = float64(c.SeededJoins) / n
	o.metrics["partition.pruned_skips_per_op"] = float64(c.PrunedSkips) / n
	o.metrics["partition.top_cache_hits_per_op"] = float64(c.TopCacheHits) / n
	o.metrics["partition.levels_per_op"] = float64(c.Levels) / n
	o.metrics["exec.cpu_per_wall"] = ratio(float64(a.cpu), float64(a.wall))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkSuites generates the five Table 1 suites and compares them with
// the pinned digests.
func checkSuites(eng *fusion.Engine) error {
	var errs []error
	for _, s := range machines.PaperSuites() {
		ms := zooMachines(s.Machines)
		sys, parts, err := (*genAcc)(nil).generate(eng, ms, s.F, "")
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		if got := partsDigest(sys.N(), s.F, parts); got != suiteDigests[s.Name] {
			errs = append(errs, fmt.Errorf("%s: partition digest %s, pinned %s", s.Name, got, suiteDigests[s.Name]))
		}
	}
	return errors.Join(errs...)
}

// runGenCold measures Algorithm 2 as a library user sees it: one caller,
// NewSystem plus Engine.Generate, no cache. Setup is the Table 1 warm-up
// pass with its pinned-digest check.
func runGenCold(cfg *config) (*outcome, error) {
	eng := fusion.DefaultEngine()
	o := newOutcome()
	_, setup, err := setupMedian(o, func() (struct{}, error) { return struct{}{}, checkSuites(eng) },
		func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	// An operation takes ~120 ms, so a 40 s run holds about 300, some 30
	// of them beyond the window's p90.
	const tailQ = 0.90

	window := cfg.dur
	if cfg.trace {
		window = cfg.dur / 2
	}
	rss := startRSS(window)
	w, err := genWindow(eng, cfg.seed, 0, window, nil)
	rss.finish(o)
	if err != nil {
		return nil, err
	}
	w.count(o)
	o.setE2E(w.bins, true, tailQ)
	untracedRate := float64(w.bins.total()) / w.busy.Seconds()
	o.notef("gen-cold: %d generations, %.2fs busy in %.2fs", w.bins.total(), w.busy.Seconds(), w.elapsed.Seconds())
	if !cfg.trace {
		return o, nil
	}

	acc := &genAcc{rec: newRecorder()}
	tw, err := genWindow(eng, cfg.seed, int(w.bins.total()), window, acc)
	if err != nil {
		return nil, err
	}
	tw.count(o)
	tracedRate := float64(tw.bins.total()) / tw.busy.Seconds()
	spans := acc.rec.snapshot()
	acc.report(o, newSpanStats(spans))
	o.metrics["trace.overhead_frac"] = ratio(untracedRate-tracedRate, untracedRate)
	traceDump(cfg, o, spans)
	return o, nil
}
