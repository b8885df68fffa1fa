package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"
)

// inProcessDaemon serves a real server.Server over httptest — the
// -addr path without process management.
func inProcessDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Options{FusionCache: 64, AccessLog: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close() //nolint:errcheck // test teardown
	})
	return ts
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                  // neither target
		{"-addr", "x", "-fusiond", "y"},     // both targets
		{"-addr", "x", "-kill"},             // kill needs a spawned daemon
		{"-addr", "x", "-replicate"},        // so does replicate
		{"-addr", "x", "-concurrency", "0"}, // no workers
		{"-addr", "x", "-duration", "0s"},   // no window
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected a flag error", args)
		}
	}
}

// TestSoakAgainstLiveDaemon runs the mixed workload briefly against an
// in-process daemon and checks the report covers the route mix.
func TestSoakAgainstLiveDaemon(t *testing.T) {
	ts := inProcessDaemon(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-duration", "2s", "-concurrency", "4",
		"-max-goroutines", "10000",
	}, &out)
	if err != nil {
		t.Fatalf("soak run failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"/v1/generate", "/v1/clusters", "/v1/clusters/{id}/events",
		"/v1/clusters/{id}/recover", "/healthz",
		"server-side p99", "goroutines=", "all ceilings respected",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if zeroOK.MatchString(report) {
		t.Fatalf("no successful requests:\n%s", report)
	}
}

// zeroOK matches a report whose 2xx count is exactly zero, not merely
// one ending in a zero digit (e.g. "16580 2xx").
var zeroOK = regexp.MustCompile(`(^|[^0-9])0 2xx`)

// TestSoakCeilingBreach: an absurd p99 ceiling must fail the run.
func TestSoakCeilingBreach(t *testing.T) {
	ts := inProcessDaemon(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-duration", "1s", "-concurrency", "2", "-max-p99", "1ns",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "ceilings breached") {
		t.Fatalf("err = %v, want ceiling breach", err)
	}
}

// TestSoakSpawnKillRestart is the full harness: soak builds and spawns
// a real fusiond, kills it with SIGKILL at half duration, restarts it,
// and the run still completes with successful traffic on both sides of
// the crash.
func TestSoakSpawnKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "fusiond")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/fusiond")
	build.Env = os.Environ()
	if outb, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building fusiond: %v\n%s", err, outb)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-fusiond", bin, "-duration", "4s", "-concurrency", "4", "-kill",
		"-max-goroutines", "10000",
	}, &out)
	if err != nil {
		t.Fatalf("spawn+kill soak failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"kill -9 at half duration", "daemon restarted and healthy", "all ceilings respected"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}
