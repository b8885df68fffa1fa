package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	fusion "repro"
	"repro/internal/exec"
)

// syncBuffer lets the test read fusiond's output while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs fusiond on an ephemeral port and returns its base URL
// plus a channel carrying run's error on exit.
func startDaemon(t *testing.T, ctx context.Context, out *syncBuffer, extraArgs ...string) (string, chan error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], errc
		}
		select {
		case err := <-errc:
			t.Fatalf("fusiond exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("fusiond never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeAndGracefulShutdown: the daemon serves the full workload over
// real HTTP and drains cleanly when its context is cancelled.
func TestServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	base, errc := startDaemon(t, ctx, &out)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	code, body := post(t, base+"/v1/clusters", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":5}`)
	if code != http.StatusCreated {
		t.Fatalf("create cluster: %d %s", code, body)
	}
	code, body = post(t, base+"/v1/clusters/c1/events",
		`{"random":{"count":25,"seed":3},"faults":[{"server":"F1","kind":"crash"}]}`)
	if code != http.StatusOK {
		t.Fatalf("events: %d %s", code, body)
	}
	code, body = post(t, base+"/v1/clusters/c1/recover", ``)
	if code != http.StatusOK || !strings.Contains(body, `"consistent": true`) {
		t.Fatalf("recover: %d %s", code, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("fusiond did not shut down:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("no drain message:\n%s", out.String())
	}
}

// TestSIGTERMFloodAcceptance is the PR's acceptance criterion end to end:
// with -max-inflight=2 -queue-depth=2, 8 concurrent POST /v1/generate
// produce at least one 429, every accepted request succeeds with results
// bit-identical to fusion.Generate, and the daemon exits cleanly on a
// real SIGTERM with its engines drained and no goroutines leaked.
func TestSIGTERMFloodAcceptance(t *testing.T) {
	// Warm the process-wide shared pool to its full worker complement and
	// compute the library reference first: those lazily spawned workers
	// persist by design (handlers touch the shared pool via NewSystem
	// even when tenants have dedicated pools) and must not be misread as
	// daemon leakage below. The daemon's own per-tenant pools (-workers)
	// are what Close must reap.
	exec.Default().Run(4*runtime.GOMAXPROCS(0), func(*exec.Ctx, int) {})
	ms := make([]*fusion.Machine, 0, 2)
	for _, n := range []string{"MESI", "TCP"} {
		m, err := fusion.ZooMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fusion.Generate(sys, 2)
	if err != nil {
		t.Fatal(err)
	}

	// The baseline comes after NotifyContext: the first signal.Notify in a
	// process starts the permanent os/signal.loop runtime goroutine, which
	// never exits and is not the daemon's.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	before := runtime.NumGoroutine()
	var out syncBuffer
	// The fusion cache is off here on purpose: this test measures the raw
	// admission path (blockers pinning slots, floods shedding 429), and the
	// cache's singleflight would coalesce the identical requests instead of
	// queueing them.
	base, errc := startDaemon(t, ctx, &out, "-max-inflight", "2", "-queue-depth", "2", "-workers", "2", "-fusion-cache", "0")
	genBody := `{"zoo":["MESI","TCP"],"f":2}`

	// Occupy both in-flight slots with generations heavy enough (seconds
	// even with the pair-graph pass sharing cascades) that the flood
	// below deterministically overlaps them, and wait until /healthz
	// confirms both are admitted and running.
	blockBody := `{"zoo":["MESI","TCP","A","B","SumMod3"],"f":2}`
	blockers := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _ := post(t, base+"/v1/generate", blockBody)
			blockers <- code
		}()
	}
	waitDeadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Tenants map[string]struct {
				InFlight int `json:"inFlight"`
			} `json:"tenants"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Tenants["default"].InFlight == 2 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("blockers never occupied both slots: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}

	const flood = 8
	codes := make([]int, flood)
	bodies := make([]string, flood)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < flood; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes[i], bodies[i] = post(t, base+"/v1/generate", genBody)
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-blockers; code != http.StatusOK {
			t.Fatalf("blocker request failed with %d", code)
		}
	}

	ok, shed := 0, 0
	var accepted []string
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
			accepted = append(accepted, bodies[i])
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, c, bodies[i])
		}
	}
	if ok+shed != flood || shed < 1 || ok < 1 {
		t.Fatalf("flood outcome: %d ok + %d shed of %d; want everything accounted, both outcomes present", ok, shed, flood)
	}
	t.Logf("flood: %d accepted, %d shed with 429", ok, shed)

	// Bit-identical to the library: decode each accepted body and compare
	// the partitions against the in-process fusion.Generate reference.
	type backup struct {
		States int     `json:"states"`
		Blocks [][]int `json:"blocks"`
	}
	var wantJSON []string
	for _, p := range parts {
		b, err := json.Marshal(backup{States: p.NumBlocks(), Blocks: p.Blocks()})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, string(b))
	}
	for i, body := range accepted {
		var resp struct {
			Backups []backup `json:"backups"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("accepted body %d: %v", i, err)
		}
		if len(resp.Backups) != len(parts) {
			t.Fatalf("accepted body %d: %d backups, want %d", i, len(resp.Backups), len(parts))
		}
		for j, bk := range resp.Backups {
			got, err := json.Marshal(bk)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != wantJSON[j] {
				t.Fatalf("accepted body %d backup %d diverges from fusion.Generate:\n%s\nvs\n%s",
					i, j, got, wantJSON[j])
			}
		}
	}

	// Real SIGTERM to our own process: signal.NotifyContext (the exact
	// wiring main uses) must turn it into a clean drain.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("fusiond did not exit on SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("no drain message after SIGTERM:\n%s", out.String())
	}

	// After shutdown the daemon must not have leaked goroutines (worker
	// pools torn down, admission queues empty, HTTP exchanges reaped).
	// The test's own client keep-alives and signal watcher are not the
	// daemon's: drop them before counting.
	stop()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked across daemon lifecycle: started with %d, left with %d\n%s", before, got, buf[:n])
	}
	// Shut-down daemon refuses connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after SIGTERM drain")
	}
}

// TestDataDirPersistence: a daemon restarted over the same -data-dir
// serves the same cluster — id, step, and per-server states — that the
// previous incarnation was driven to.
func TestDataDirPersistence(t *testing.T) {
	dataDir := t.TempDir()

	ctx1, cancel1 := context.WithCancel(context.Background())
	var out1 syncBuffer
	base, errc := startDaemon(t, ctx1, &out1, "-data-dir", dataDir)
	code, body := post(t, base+"/v1/clusters", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":11}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, _ = post(t, base+"/v1/clusters/c1/events",
		`{"random":{"count":17,"seed":4},"faults":[{"server":"F1","kind":"crash"}]}`)
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	resp, err := http.Get(base + "/v1/clusters/c1")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	cancel1()
	if err := <-errc; err != nil {
		t.Fatalf("first daemon: %v\n%s", err, out1.String())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncBuffer
	base2, errc2 := startDaemon(t, ctx2, &out2, "-data-dir", dataDir)
	resp, err = http.Get(base2 + "/v1/clusters/c1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted GET: %d %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("cluster state diverged across restart:\n%s\nvs\n%s", got, want)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second daemon: %v\n%s", err, out2.String())
	}
}

// TestFlagAndListenErrors: flag errors and unbindable addresses fail run.
func TestFlagAndListenErrors(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, &out); err == nil {
		t.Error("unbindable address accepted")
	}
	// Queue flags without an in-flight limit would silently disable
	// admission; refuse them loudly instead.
	if err := run(context.Background(), []string{"-queue-depth", "4"}, &out); err == nil {
		t.Error("-queue-depth without -max-inflight accepted")
	}
	if err := run(context.Background(), []string{"-queue-timeout", "1s"}, &out); err == nil {
		t.Error("-queue-timeout without -max-inflight accepted")
	}
	// Same for a compaction threshold without a data dir.
	if err := run(context.Background(), []string{"-compact-every", "8"}, &out); err == nil {
		t.Error("-compact-every without -data-dir accepted")
	}
	// A negative cache size is a mistake, not a disable request.
	if err := run(context.Background(), []string{"-fusion-cache", "-1"}, &out); err == nil {
		t.Error("-fusion-cache -1 accepted")
	}
	// Batch tuning without a disk is a no-op the operator should hear
	// about.
	if err := run(context.Background(), []string{"-group-batch-bytes", "4096"}, &out); err == nil {
		t.Error("-group-batch-bytes without -data-dir accepted")
	}
	if err := run(context.Background(), []string{"-group-batch-delay", "1ms"}, &out); err == nil {
		t.Error("-group-batch-delay without -data-dir accepted")
	}
	if err := run(context.Background(), []string{
		"-data-dir", t.TempDir(), "-group-batch-delay", "-1ms",
	}, &out); err == nil {
		t.Error("negative -group-batch-delay accepted")
	}
}

// TestFusionCacheAcrossRestart: the daemon default serves an exact repeat
// of a generate request from the cache, and a -data-dir daemon still does
// after a restart — without recomputing.
func TestFusionCacheAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-data-dir", dataDir, "-prewarm-zoo=false"}

	ctx1, cancel1 := context.WithCancel(context.Background())
	var out1 syncBuffer
	base, errc := startDaemon(t, ctx1, &out1, args...)
	genBody := `{"zoo":["0-Counter","1-Counter"],"f":1}`
	code, want := post(t, base+"/v1/generate", genBody)
	if code != http.StatusOK {
		t.Fatalf("cold generate: %d %s", code, want)
	}
	code, repeat := post(t, base+"/v1/generate", genBody)
	if code != http.StatusOK || repeat != want {
		t.Fatalf("warm generate: %d, body match=%v", code, repeat == want)
	}
	cancel1()
	if err := <-errc; err != nil {
		t.Fatalf("first daemon: %v\n%s", err, out1.String())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncBuffer
	base2, errc2 := startDaemon(t, ctx2, &out2, args...)
	resp, err := http.Post(base2+"/v1/generate", "application/json", strings.NewReader(genBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) //nolint:errcheck // checked via compare
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("post-restart generate: %d, body match=%v", resp.StatusCode, string(body) == want)
	}
	if got := resp.Header.Get("X-Fusion-Cache"); got != "hit" {
		t.Fatalf("post-restart X-Fusion-Cache = %q, want hit (rehydrated from -data-dir)", got)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second daemon: %v\n%s", err, out2.String())
	}
}

// TestWorkersFlagDeterministic: the service answer is independent of the
// per-tenant pool size, matching the engine contract.
func TestWorkersFlagDeterministic(t *testing.T) {
	var want string
	for _, workers := range []string{"1", "3"} {
		ctx, cancel := context.WithCancel(context.Background())
		var out syncBuffer
		base, errc := startDaemon(t, ctx, &out, "-workers", workers)
		code, body := post(t, base+"/v1/generate", `{"zoo":["0-Counter","1-Counter"],"f":1}`)
		if code != http.StatusOK {
			t.Fatalf("workers=%s: status %d", workers, code)
		}
		cancel()
		if err := <-errc; err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		if want == "" {
			want = body
		} else if body != want {
			t.Fatalf("-workers %s changed the generate answer:\n%s\nvs\n%s", workers, body, want)
		}
	}
}
