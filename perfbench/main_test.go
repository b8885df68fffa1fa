package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	fusion "repro"
)

type runResult struct {
	Correct   bool                               `json:"correct"`
	Attempted int64                              `json:"attempted"`
	Failed    int64                              `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

// runBench runs the benchmark in process and returns its exit code and
// the parsed last line of its standard output (nil if none).
func runBench(t *testing.T, args ...string) (int, *runResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append(args, "--work-dir", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return code, nil, stdout.String() + stderr.String()
	}
	return code, &res, stdout.String() + stderr.String()
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestSmokeRunEachWorkload(t *testing.T) {
	for _, w := range []string{"gen-cold", "serve-mixed"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				code, res, out := runBench(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", traced)
				if code != 0 || res == nil {
					t.Fatalf("exit %d\n%s", code, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := metricNames(e2eMetrics)
				if traced == "1" {
					want = metricNames(layerMetrics)
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if traced == "0" {
					for _, k := range []string{"ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"} {
						if res.Metrics[k].Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
						}
					}
					if res.Metrics["success_rate"].Value != 1 {
						t.Errorf("success_rate = %v, want 1", res.Metrics["success_rate"].Value)
					}
				}
			})
		}
	}
}

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range []string{"gen-cold", "serve-mixed"} {
		n := 2000
		if w == "gen-cold" {
			n = 40
		}
		a, err := opList(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opList(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two op lists for seed 7 differ", w)
		}
		c, err := opList(w, 8, n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same op list", w)
		}
	}
}

// TestServeStreamMix pins the serve-mixed shape the workload's why
// rests on: mostly catalog hits, and both minorities present.
func TestServeStreamMix(t *testing.T) {
	st := newServeStream(1)
	counts := map[serveKind]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[st.at(i).Kind]++
	}
	if counts[opHit] < 98*n/100 || counts[opMiss] == 0 || counts[opChurn] == 0 {
		t.Fatalf("mix %v over %d operations", counts, n)
	}
}

func TestGenDigestsRepeatAcrossRuns(t *testing.T) {
	eng := fusion.DefaultEngine()
	wa, err := genWindow(eng, 5, 1, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := genWindow(eng, 5, 1, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wa.digests, wb.digests
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			t.Fatalf("op %d: digest %s then %s", 1+i, a[i], b[i])
		}
	}
	if wa.failed != 0 || wb.failed != 0 {
		t.Fatalf("checks failed: %v %v", wa.errs, wb.errs)
	}
}

// TestBinsStayBounded pins that a window's latency bins do not grow
// past their preallocated capacity, and that the counts stay exact.
func TestBinsStayBounded(t *testing.T) {
	b := newBins(10*time.Second, 0)
	const n = binCap + 5000
	for k := 0; k < n; k++ {
		b.add(time.Second/2, time.Millisecond)
	}
	b.add(time.Hour, time.Millisecond) // after the window: counted in the last slice
	if b.n[0] != n || b.n[subWindows-1] != 1 || b.total() != n+1 || b.busy[0] != n {
		t.Fatalf("counts %v busy %v", b.n, b.busy)
	}
	if len(b.lat[0]) != binCap || cap(b.lat[0]) != binCap {
		t.Fatalf("slice 0 holds %d samples (cap %d), want %d", len(b.lat[0]), cap(b.lat[0]), binCap)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	// root [0,100) with children [10,30), [20,50) (overlapping) and
	// [90,120) (clipped at the root's end); child [20,50) has its own
	// child [25,35).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	st := newSpanStats(spans)
	if got := st.selfDurs("b"); len(got) != 1 || got[0] != 20000 {
		t.Errorf("selfDurs(b) = %v, want [20000]", got)
	}
}

func TestBrokenExpectationFailsRun(t *testing.T) {
	saved := suiteDigests["tab1.2"]
	suiteDigests["tab1.2"] = strings.Repeat("0", 64)
	defer func() { suiteDigests["tab1.2"] = saved }()
	code, res, out := runBench(t, "--workload", "gen-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
	if code == 0 {
		t.Fatalf("run with a wrong pinned digest exited 0\n%s", out)
	}
	if res != nil && res.Correct {
		t.Fatalf("run with a wrong pinned digest reported correct\n%s", out)
	}
	if !strings.Contains(out, "tab1.2") {
		t.Fatalf("failure does not name the suite\n%s", out)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(xs, 0.9); q != 9 {
		t.Errorf("p90 = %v, want 9", q)
	}
	if q := quantile(nil, 0.99); q != 0 {
		t.Errorf("empty p99 = %v, want 0", q)
	}
}
