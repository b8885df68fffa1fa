// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the real stack — the fusion library for
// gen-cold, an in-process fusiond on a loopback listener for
// serve-mixed — checks that every output is correct,
// and prints each metric by name and unit. The last line of standard
// output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every layer call it makes and reports the
// per-layer metrics instead. See README.md for the metric definitions.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with -trace 0.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every workload with -trace 1. A layer the
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"dfsm.system_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_bytes_per_op", "B"},
	{"partition.closures_per_op", "count"},
	{"partition.implied_frac", "ratio"},
	{"partition.cold_cascades_per_op", "count"},
	{"partition.seeded_joins_per_op", "count"},
	{"partition.pruned_skips_per_op", "count"},
	{"partition.top_cache_hits_per_op", "count"},
	{"partition.levels_per_op", "count"},
	{"exec.cpu_per_wall", "ratio"},
	{"server.generate_hit_ms", "ms"},
	{"server.generate_miss_ms", "ms"},
	{"server.cluster_ms", "ms"},
	{"server.handler_frac", "ratio"},
	{"server.codec_us", "us"},
	{"fcache.hit_frac", "ratio"},
	{"fcache.evictions_per_kop", "count"},
	{"fcache.digest_us", "us"},
	{"fcache.lookup_us", "us"},
	{"admission.rejected_frac", "ratio"},
	{"admission.queued_mean", "count"},
	{"sim.update_us", "us"},
	{"sim.apply_us", "us"},
	{"sim.recover_us", "us"},
	{"store.stage_us", "us"},
	{"store.fsync_wait_us", "us"},
	{"store.snapshot_us", "us"},
	{"store.snapshots_per_kop", "count"},
	{"store.fsyncs_per_op", "count"},
	{"store.records_per_flush", "count"},
	{"store.flush_p99_ms", "ms"},
	{"repl.lag_ops_p99", "count"},
	{"repl.drain_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, so a few slow set-ups do not move it.
const setupRuns = 9

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	workDir  string // scratch space for data dirs and trace dumps
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	checkErrs         []error
	metrics           map[string]float64
	notes             []string // human-readable detail, printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records a failed correctness check; any makes the run fail.
func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err)
	}
}

// count folds one measured window's operation counts into the outcome.
func (o *outcome) count(t *tally) {
	o.attempted += t.attempted
	o.failed += t.failed
	o.checkErrs = append(o.checkErrs, t.checkErrs...)
}

// subWindows is how many equal slices a measured window is cut into.
// The end-to-end metrics are medians over the slices, so a few seconds
// of noise from outside the benchmark (another tenant's CPU or disk
// burst) do not move them.
const subWindows = 10

// setE2E sets the end-to-end metrics of an untraced window from its
// latency bins. Per slice it takes the rate and the p50, then the median
// of each over the slices. The rate is operations per second of wall
// time, or per second spent inside the operations when busy is set (a
// single caller whose own input building and checking is not the
// system's work). The tailQ-quantile is taken the same way when each
// slice has at least ten operations beyond it; otherwise a slice's tail
// is one of its few largest operations and moves with which inputs the
// slice drew, so it is taken over the whole window.
func (o *outcome) setE2E(b *bins, busy bool, tailQ float64) {
	n := b.total()
	perSlice := float64(n)*(1-tailQ)/subWindows >= 10
	var rates, p50s, tails, all []float64
	for j, l32 := range b.lat {
		if b.n[j] == 0 && busy {
			// No operation ended here: its busy time is in a later slice.
			continue
		}
		if busy {
			rates = append(rates, float64(b.n[j])/(b.busy[j]/1000))
		} else {
			rates = append(rates, float64(b.n[j])/b.slice.Seconds())
		}
		if len(l32) == 0 {
			continue
		}
		l := make([]float64, len(l32))
		for k, v := range l32 {
			l[k] = float64(v)
		}
		all = append(all, l...)
		p50s = append(p50s, quantile(l, 0.5))
		tails = append(tails, quantile(l, tailQ))
	}
	o.metrics["ops_per_s"] = median(rates)
	o.metrics["latency_p50_ms"] = median(p50s)
	if perSlice {
		o.metrics["latency_tail_ms"] = median(tails)
		o.notef("metrics are medians over %d slices of %d operations; latency_tail_ms is each slice's p%g (%.1f operations beyond it per slice)",
			subWindows, n, 100*tailQ, float64(n)*(1-tailQ)/subWindows)
	} else {
		o.metrics["latency_tail_ms"] = quantile(all, tailQ)
		o.notef("metrics are medians over %d slices of %d operations; latency_tail_ms is the window's p%g (%.1f operations beyond it)",
			subWindows, n, 100*tailQ, float64(n)*(1-tailQ))
	}
}

// cpuSteal reads the machine's cumulative CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat.
func cpuSteal() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

var workloads = map[string]func(*config) (*outcome, error){
	"gen-cold":    runGenCold,
	"serve-mixed": runServeMixed,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs the benchmark and returns the process exit code: 0 only
// when the run completed and every correctness check passed.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "gen-cold or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory for data dirs and trace dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload gen-cold|serve-mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg := &config{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, workDir: *workDir}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s datafs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.workDir))

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	// success_rate is set last, so that it counts every failed check,
	// those run after the window included.
	o.metrics["success_rate"] = 1 - ratio(float64(o.failed), float64(o.attempted))
	o.notef("error_rate %.6f (%d failed of %d attempted)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	o.notef("VmHWM %.1f MB (all-time peak resident set, setup included)", vmHWMMB())
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(o.checkErrs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]map[string]any)}
	for _, d := range defs {
		v := o.metrics[d.name]
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(stdout, "%-15s %-32s %14.6g %s\n", cfg.workload, d.name, v, d.unit)
	}
	for _, e := range o.checkErrs {
		fmt.Fprintf(stderr, "perfbench: correctness check failed: %v\n", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// vmHWMMB is the process's all-time peak resident set (getrusage's
// maxrss, which Linux reports in KiB).
func vmHWMMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssMB is the process's current resident set: the benchmark client and
// the in-process servers together.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler samples the resident set every rssPeriod while a window
// runs. Its peak_rss_mb is the median, over the window's seconds, of each
// second's highest sample: the peak a steady load reaches, which one
// unusually large operation does not move the way it moves VmHWM.
type rssSampler struct {
	start time.Time
	cpu0  [2]float64 // machine CPU ticks and steal ticks at start
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // highest sample in each rssSlice of the window
}

// rssSlice is the span each peak covers. A short span makes the median
// of the peaks a low order statistic of the operations' own peaks. With
// the window's 4 s slices each peak was the largest of about 30 gen-cold
// generations, and their median spread up to 0.17 across seeds; over the
// same five runs, 1 s peaks spread about half as much.
const (
	rssPeriod = 10 * time.Millisecond
	rssSlice  = time.Second
)

// startRSS starts sampling a window that is to last window.
func startRSS(window time.Duration) *rssSampler {
	r := &rssSampler{start: time.Now(), peaks: make([]float64, max(1, int(window/rssSlice))),
		stop: make(chan struct{}), done: make(chan struct{})}
	r.cpu0[0], r.cpu0[1] = cpuSteal()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			j := min(int(time.Since(r.start)/rssSlice), len(r.peaks)-1)
			r.peaks[j] = max(r.peaks[j], rssMB())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops the sampler, sets peak_rss_mb to the median of the
// peaks, and notes how much CPU the hypervisor stole meanwhile,
// which explains a run that is slow for reasons outside the benchmark.
func (r *rssSampler) finish(o *outcome) {
	close(r.stop)
	<-r.done
	total, steal := cpuSteal()
	o.notef("cpu steal %.1f%% of machine CPU time during the window", 100*ratio(steal-r.cpu0[1], total-r.cpu0[0]))
	o.notef("rss peaks per second %.1f MB", r.peaks)
	o.metrics["peak_rss_mb"] = median(r.peaks)
}

// fsType names the filesystem under dir, since fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// setupMedian runs setup setupRuns times and returns the last run's
// value with the median wall time; earlier values are torn down.
func setupMedian[T any](o *outcome, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var zero, v T
	times := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if k < setupRuns-1 {
			if err := teardown(v); err != nil {
				return zero, 0, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	o.notef("set-up times %.4f s", times)
	return v, median(times), nil
}

// traceDump writes a traced run's spans under the work directory.
func traceDump(cfg *config, o *outcome, spans []span) {
	// One file per workload, overwritten by its next traced run.
	path := filepath.Join(cfg.workDir, "traces", cfg.workload+".jsonl")
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "spans": len(spans)}
	if err := dumpSpans(path, header, spans); err != nil {
		o.notef("trace dump failed: %v", err)
		return
	}
	o.notef("trace: %d spans written to %s", len(spans), path)
}
