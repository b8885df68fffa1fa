package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestRestartDurability is the PR's acceptance criterion at the server
// layer: drive deployments across two tenants, then bring up a second
// server over the same data dir WITHOUT closing the first — the exact
// semantics of a SIGKILL, where no drain snapshot ever runs and recovery
// has only the WAL — and every tenant, cluster id, step count, and
// per-server state must come back bit-identical.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Options{DataDir: dir})

	var alice1, alice2, bob1 ClusterResponse
	if w := do(t, s1, "POST", "/v1/clusters", "alice", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":42}`, &alice1); w.Code != http.StatusCreated {
		t.Fatalf("alice create: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, s1, "POST", "/v1/clusters", "alice", `{"zoo":["MESI","TCP"],"f":2,"seed":7}`, &alice2); w.Code != http.StatusCreated {
		t.Fatalf("alice create 2: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, s1, "POST", "/v1/clusters", "bob", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":3}`, &bob1); w.Code != http.StatusCreated {
		t.Fatalf("bob create: %d %s", w.Code, w.Body.String())
	}
	// Advance alice/c1 through the full lifecycle: events, a crash at the
	// cut, a recovery, more events — all of it WAL records.
	if w := do(t, s1, "POST", "/v1/clusters/c1/events", "alice",
		`{"random":{"count":30,"seed":9},"faults":[{"server":"F1","kind":"crash"}]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("alice events: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, s1, "POST", "/v1/clusters/c1/recover", "alice", "", nil); w.Code != http.StatusOK {
		t.Fatalf("alice recover: %d", w.Code)
	}
	if w := do(t, s1, "POST", "/v1/clusters/c1/events", "alice",
		`{"events":["0","1","1"],"faults":[{"server":"0-Counter","kind":"byzantine"}]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("alice events 2: %d", w.Code)
	}
	if w := do(t, s1, "POST", "/v1/clusters/c2/events", "alice", `{"random":{"count":12,"seed":1}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("alice c2 events: %d", w.Code)
	}

	// Pre-kill ground truth, as a client would read it.
	snapshot := func(s *Server) map[string]ClusterResponse {
		t.Helper()
		out := make(map[string]ClusterResponse)
		for _, probe := range []struct{ tenant, id string }{
			{"alice", "c1"}, {"alice", "c2"}, {"bob", "c1"},
		} {
			var cl ClusterResponse
			if w := do(t, s, "GET", "/v1/clusters/"+probe.id, probe.tenant, "", &cl); w.Code != http.StatusOK {
				t.Fatalf("GET %s/%s: %d %s", probe.tenant, probe.id, w.Code, w.Body.String())
			}
			out[probe.tenant+"/"+probe.id] = cl
		}
		return out
	}
	before := snapshot(s1)
	var healthBefore HealthResponse
	do(t, s1, "GET", "/healthz", "", "", &healthBefore)

	// SIGKILL: s1 is simply abandoned — no Close, no final snapshots.
	s2 := mustNew(t, Options{DataDir: dir})
	defer s2.Close()
	after := snapshot(s2)
	for key, want := range before {
		got := after[key]
		if got.ID != want.ID || got.Step != want.Step {
			t.Fatalf("%s: id/step diverge after restart: %+v vs %+v", key, got, want)
		}
		if strings.Join(got.Servers, ",") != strings.Join(want.Servers, ",") {
			t.Fatalf("%s: servers diverge: %v vs %v", key, got.Servers, want.Servers)
		}
		for i := range want.States {
			if got.States[i] != want.States[i] {
				t.Fatalf("%s: state[%d] = %d, want %d", key, i, got.States[i], want.States[i])
			}
		}
	}
	// Metrics survive too (snapshot + replay reconstructs the counters).
	var healthAfter HealthResponse
	do(t, s2, "GET", "/healthz", "", "", &healthAfter)
	for tenant, th := range healthBefore.Tenants {
		for id, m := range th.ClusterMetrics {
			if got := healthAfter.Tenants[tenant].ClusterMetrics[id]; got != m {
				t.Fatalf("%s/%s metrics diverge: %+v vs %+v", tenant, id, got, m)
			}
		}
	}
	// The recovered registry keeps minting fresh ids past the recovered
	// ones.
	var cl ClusterResponse
	if w := do(t, s2, "POST", "/v1/clusters", "alice", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`, &cl); w.Code != http.StatusCreated {
		t.Fatalf("create after restart: %d", w.Code)
	}
	if cl.ID != "c3" {
		t.Fatalf("id after restart = %s, want c3", cl.ID)
	}
	// And a deleted cluster stays deleted across another restart.
	if w := do(t, s2, "DELETE", "/v1/clusters/c1", "bob", "", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	s2.Close()
	s3 := mustNew(t, Options{DataDir: dir})
	defer s3.Close()
	if w := do(t, s3, "GET", "/v1/clusters/c1", "bob", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("deleted cluster resurrected: %d", w.Code)
	}
}

// TestGracefulCloseSnapshots: a drained server compacts every journal,
// so the next boot finds snapshots and empty WALs (and still restores
// identical state).
func TestGracefulCloseSnapshots(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Options{DataDir: dir})
	var cl ClusterResponse
	if w := do(t, s1, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":5}`, &cl); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	if w := do(t, s1, "POST", "/v1/clusters/c1/events", "", `{"random":{"count":9,"seed":2}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("events: %d", w.Code)
	}
	var before ClusterResponse
	do(t, s1, "GET", "/v1/clusters/c1", "", "", &before)
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The drain left a committed snapshot and an empty current WAL.
	cdir := filepath.Join(dir, "default", "c1")
	if _, err := os.Stat(filepath.Join(cdir, "snapshot-1.json")); err != nil {
		t.Fatalf("no drain snapshot: %v", err)
	}
	st, err := store.NewDir(filepath.Join(dir, "default"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	var drained *store.Record
	for i := range recs {
		if recs[i].ID == "c1" {
			drained = &recs[i]
		}
	}
	if drained == nil || drained.Snapshot == nil || len(drained.WAL) != 0 {
		t.Fatalf("c1 after drain = %+v; want a snapshot and an empty WAL", drained)
	}

	s2 := mustNew(t, Options{DataDir: dir})
	defer s2.Close()
	var after ClusterResponse
	if w := do(t, s2, "GET", "/v1/clusters/c1", "", "", &after); w.Code != http.StatusOK {
		t.Fatalf("get after graceful restart: %d", w.Code)
	}
	if after.Step != before.Step || strings.Join(after.Servers, ",") != strings.Join(before.Servers, ",") {
		t.Fatalf("graceful restart diverged: %+v vs %+v", after, before)
	}
	for i := range before.States {
		if after.States[i] != before.States[i] {
			t.Fatalf("state[%d] = %d, want %d", i, after.States[i], before.States[i])
		}
	}
}

// TestTenantNameDotRejected: tenant names become directories under
// DataDir, so dot-leading names (".." above all) are refused before any
// filesystem work.
func TestTenantNameDotRejected(t *testing.T) {
	s := mustNew(t, Options{DataDir: t.TempDir()})
	defer s.Close()
	for _, name := range []string{"..", ".", ".hidden"} {
		w := do(t, s, "POST", "/v1/generate", name, `{"zoo":["0-Counter"],"f":0}`, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400", name, w.Code)
		}
	}
}

// TestMetricsEndpoint: /metrics serves the Prometheus text format with
// the tenant admission gauges, per-cluster sim counters, and the
// process-wide generation counters.
func TestMetricsEndpoint(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	if w := do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":42}`, nil); w.Code != http.StatusCreated {
		t.Fatalf("create: %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters/c1/events", "",
		`{"random":{"count":25,"seed":7},"faults":[{"server":"F1","kind":"crash"}]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("events: %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters/c1/recover", "", "", nil); w.Code != http.StatusOK {
		t.Fatalf("recover: %d", w.Code)
	}

	w := do(t, s, "GET", "/metrics", "", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	if ct := w.Result().Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`fusiond_tenant_in_flight{tenant="default"} 0`,
		`fusiond_tenant_queued{tenant="default"} 0`,
		`fusiond_tenant_clusters{tenant="default"} 1`,
		`fusiond_cluster_events_applied_total{tenant="default",cluster="c1"} 25`,
		`fusiond_cluster_faults_injected_total{tenant="default",cluster="c1"} 1`,
		`fusiond_cluster_recoveries_total{tenant="default",cluster="c1"} 1`,
		`fusiond_cluster_servers_restored_total{tenant="default",cluster="c1"} 1`,
		"# TYPE fusiond_generate_runs_total counter",
		"# TYPE fusiond_generate_descents_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// The generation counters are process-wide and monotonic; this test
	// generated at least one fusion, so runs/descents are positive.
	for _, counter := range []string{"fusiond_generate_runs_total", "fusiond_generate_descents_total"} {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, counter+" ") {
				if strings.TrimPrefix(line, counter+" ") == "0" {
					t.Errorf("%s is zero after a generation", counter)
				}
			}
		}
	}
}
