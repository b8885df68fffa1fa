package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	fusion "repro"
)

// mustNew builds a server, failing the test on boot-recovery errors.
func mustNew(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one in-process request against the server and decodes the JSON
// response into out (skipped when out is nil or the body is empty).
func do(t *testing.T, s *Server, method, path, tenant, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	if tenant != "" {
		r.Header.Set("X-Fusion-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if out != nil && w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON: %v\n%s", method, path, err, w.Body.String())
		}
	}
	return w
}

// wantBackups runs the library path the server must agree with.
func wantBackups(t *testing.T, zoo []string, f int) ([]BackupResponse, int) {
	t.Helper()
	ms := make([]*fusion.Machine, len(zoo))
	for i, n := range zoo {
		m, err := fusion.ZooMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fusion.Generate(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]BackupResponse, len(parts))
	for i, p := range parts {
		out[i] = BackupResponse{States: p.NumBlocks(), Blocks: p.Blocks()}
	}
	return out, sys.N()
}

// TestGenerateEndpoint: the service's generate answer is bit-identical to
// the library's fusion.Generate — the engine only redistributes work.
func TestGenerateEndpoint(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	var resp GenerateResponse
	w := do(t, s, "POST", "/v1/generate", "", `{"zoo":["MESI","1-Counter","0-Counter"],"f":2}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	want, n := wantBackups(t, []string{"MESI", "1-Counter", "0-Counter"}, 2)
	if resp.N != n || resp.F != 2 {
		t.Fatalf("resp header = {n:%d f:%d}, want {n:%d f:2}", resp.N, resp.F, n)
	}
	if !reflect.DeepEqual(resp.Backups, want) {
		t.Fatalf("backups diverge from fusion.Generate:\ngot  %v\nwant %v", resp.Backups, want)
	}
}

// TestGenerateSpec: the inline .fsm path round-trips through the same
// parser the CLIs use.
func TestGenerateSpec(t *testing.T) {
	a, err := fusion.ZooMachine("0-Counter")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fusion.ZooMachine("1-Counter")
	if err != nil {
		t.Fatal(err)
	}
	spec := fusion.FormatSpec([]*fusion.Machine{a, b})
	s := mustNew(t, Options{})
	defer s.Close()
	body, err := json.Marshal(GenerateRequest{MachineSetRequest: MachineSetRequest{Spec: spec}, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var resp GenerateResponse
	w := do(t, s, "POST", "/v1/generate", "", string(body), &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	want, _ := wantBackups(t, []string{"0-Counter", "1-Counter"}, 1)
	if !reflect.DeepEqual(resp.Backups, want) {
		t.Fatalf("spec-path backups diverge:\ngot  %v\nwant %v", resp.Backups, want)
	}
}

// TestGenerateRejections: malformed and invalid requests come back as
// structured 400s, never 500s.
func TestGenerateRejections(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"malformed JSON", `{"zoo":`, http.StatusBadRequest},
		{"trailing data", `{"zoo":["MESI"],"f":1} extra`, http.StatusBadRequest},
		{"unknown field", `{"zoo":["MESI"],"f":1,"bogus":true}`, http.StatusBadRequest},
		{"no machines", `{"f":1}`, http.StatusBadRequest},
		{"zoo and spec", `{"zoo":["MESI"],"spec":"x","f":1}`, http.StatusBadRequest},
		{"unknown zoo name", `{"zoo":["NoSuchMachine"],"f":1}`, http.StatusBadRequest},
		{"negative f", `{"zoo":["MESI"],"f":-1}`, http.StatusBadRequest},
		{"bad spec", `{"spec":"not an fsm","f":1}`, http.StatusBadRequest},
	} {
		var e ErrorResponse
		w := do(t, s, "POST", "/v1/generate", "", tc.body, &e)
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
		if e.Error == "" {
			t.Errorf("%s: no error message in body %q", tc.name, w.Body.String())
		}
	}
	// Wrong method on a known path: the mux answers 405.
	if w := do(t, s, "GET", "/v1/generate", "", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate: status %d, want 405", w.Code)
	}
	// Invalid tenant names are rejected before any engine work.
	r := httptest.NewRequest("POST", "/v1/generate", strings.NewReader(`{"zoo":["MESI"],"f":1}`))
	r.Header.Set("X-Fusion-Tenant", "bad tenant!")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Errorf("invalid tenant: status %d, want 400", w.Code)
	}
}

// TestClusterLifecycle walks the full workload end to end in-process:
// create → inspect → events+crash → recover → delete.
func TestClusterLifecycle(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()

	var cl ClusterResponse
	w := do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":42}`, &cl)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body.String())
	}
	if cl.ID != "c1" || cl.Backups != 1 || len(cl.Servers) != 3 || cl.Step != 0 {
		t.Fatalf("create response: %+v", cl)
	}

	var got ClusterResponse
	if w := do(t, s, "GET", "/v1/clusters/c1", "", "", &got); w.Code != http.StatusOK {
		t.Fatalf("get: status %d", w.Code)
	}
	if !reflect.DeepEqual(got, cl) {
		t.Fatalf("GET diverges from create:\ngot  %+v\nwant %+v", got, cl)
	}

	var ev EventsResponse
	w = do(t, s, "POST", "/v1/clusters/c1/events", "",
		`{"random":{"count":30,"seed":7},"faults":[{"server":"F1","kind":"crash"}]}`, &ev)
	if w.Code != http.StatusOK {
		t.Fatalf("events: status %d: %s", w.Code, w.Body.String())
	}
	if ev.Applied != 30 || ev.Step != 30 {
		t.Fatalf("events applied/step = %d/%d, want 30/30", ev.Applied, ev.Step)
	}
	if ev.States[2] != -1 {
		t.Fatalf("crashed server state = %d, want -1", ev.States[2])
	}

	var rec RecoverResponse
	w = do(t, s, "POST", "/v1/clusters/c1/recover", "", "", &rec)
	if w.Code != http.StatusOK {
		t.Fatalf("recover: status %d: %s", w.Code, w.Body.String())
	}
	if !rec.Consistent {
		t.Fatalf("recovery left the cluster inconsistent: %+v", rec)
	}
	if len(rec.Restored) != 1 || rec.Restored[0] != "F1" {
		t.Fatalf("restored = %v, want [F1]", rec.Restored)
	}
	if rec.States[2] == -1 {
		t.Fatal("crashed server not restored")
	}

	if w := do(t, s, "DELETE", "/v1/clusters/c1", "", "", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/clusters/c1", "", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", w.Code)
	}
}

// TestHealthzClusterMetrics: /healthz surfaces each cluster's simulation
// counters (events applied, faults, recoveries, restorations) next to the
// tenant's engine stats, and drops the section with the cluster.
func TestHealthzClusterMetrics(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()

	var cl ClusterResponse
	if w := do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":42}`, &cl); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/clusters/"+cl.ID+"/events", "",
		`{"random":{"count":25,"seed":7},"faults":[{"server":"F1","kind":"crash"}]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("events: status %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters/"+cl.ID+"/recover", "", "", nil); w.Code != http.StatusOK {
		t.Fatalf("recover: status %d", w.Code)
	}

	var h HealthResponse
	if w := do(t, s, "GET", "/healthz", "", "", &h); w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	m, ok := h.Tenants["default"].ClusterMetrics[cl.ID]
	if !ok {
		t.Fatalf("healthz has no metrics for cluster %s: %+v", cl.ID, h.Tenants["default"])
	}
	want := ClusterMetrics{EventsApplied: 25, FaultsInjected: 1, Recoveries: 1, ServersRestored: 1}
	if m != want {
		t.Fatalf("cluster metrics = %+v, want %+v", m, want)
	}

	if w := do(t, s, "DELETE", "/v1/clusters/"+cl.ID, "", "", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := do(t, s, "GET", "/healthz", "", "", &h); w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	if len(h.Tenants["default"].ClusterMetrics) != 0 {
		t.Fatalf("metrics survived cluster deletion: %+v", h.Tenants["default"].ClusterMetrics)
	}
}

// TestClusterUnknownID: every {id} route 404s cleanly on a handle that
// never existed.
func TestClusterUnknownID(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/clusters/c99", ""},
		{"DELETE", "/v1/clusters/c99", ""},
		{"POST", "/v1/clusters/c99/events", `{"events":["0"]}`},
		{"POST", "/v1/clusters/c99/recover", ""},
	} {
		var e ErrorResponse
		w := do(t, s, tc.method, tc.path, "", tc.body, &e)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, w.Code)
		}
		if !strings.Contains(e.Error, "c99") {
			t.Errorf("%s %s: error %q does not name the id", tc.method, tc.path, e.Error)
		}
	}
}

// TestClusterEventsRejections: bad fault kinds and malformed bodies 400;
// recovery beyond the fault budget is a 422, not a 500.
func TestClusterEventsRejections(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`, nil)

	if w := do(t, s, "POST", "/v1/clusters/c1/events", "", `{"events":`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("malformed events body: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters/c1/events", "",
		`{"faults":[{"server":"F1","kind":"meltdown"}]}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("unknown fault kind: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters/c1/events", "",
		`{"faults":[{"server":"NoSuchServer","kind":"crash"}]}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("unknown fault server: status %d, want 400", w.Code)
	}
	// Crash everything: the vote is ambiguous, which is the experiment's
	// outcome, reported as 422.
	w := do(t, s, "POST", "/v1/clusters/c1/events", "",
		`{"faults":[{"server":"0-Counter","kind":"crash"},{"server":"1-Counter","kind":"crash"},{"server":"F1","kind":"crash"}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("crash-all events: status %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/clusters/c1/recover", "", "", nil); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("over-budget recover: status %d, want 422", w.Code)
	}
}

// TestTenantIsolation: handles and engines are per tenant — one tenant's
// cluster ids mean nothing to another, and health reports them apart.
func TestTenantIsolation(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	var cl ClusterResponse
	if w := do(t, s, "POST", "/v1/clusters", "alice", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`, &cl); w.Code != http.StatusCreated {
		t.Fatalf("alice create: %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/clusters/"+cl.ID, "bob", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("bob sees alice's cluster: status %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/v1/clusters/"+cl.ID, "alice", "", nil); w.Code != http.StatusOK {
		t.Fatalf("alice lost her cluster: status %d", w.Code)
	}
	var h HealthResponse
	if w := do(t, s, "GET", "/healthz", "", "", &h); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}
	if h.Tenants["alice"].Clusters != 1 || h.Tenants["bob"].Clusters != 0 {
		t.Fatalf("tenant health wrong: %+v", h.Tenants)
	}
}

// TestMaxClusters: the per-tenant registry cap turns into 429 (capacity,
// not conflict — retrying after a delete succeeds) with a Retry-After
// hint, and deleting frees capacity.
func TestMaxClusters(t *testing.T) {
	s := mustNew(t, Options{MaxClusters: 1})
	defer s.Close()
	body := `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`
	if w := do(t, s, "POST", "/v1/clusters", "", body, nil); w.Code != http.StatusCreated {
		t.Fatalf("first create: %d", w.Code)
	}
	w := do(t, s, "POST", "/v1/clusters", "", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", w.Code)
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Fatal("cluster-cap 429 without Retry-After")
	}
	if w := do(t, s, "DELETE", "/v1/clusters/c1", "", "", nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/clusters", "", body, nil); w.Code != http.StatusCreated {
		t.Fatalf("create after delete: %d", w.Code)
	}
}

// TestMaxTenants: tenant creation is bounded — a client minting fresh
// header values is shed with 429 once the cap is reached, while existing
// tenants keep working.
func TestMaxTenants(t *testing.T) {
	s := mustNew(t, Options{MaxTenants: 2})
	defer s.Close()
	body := `{"zoo":["0-Counter","1-Counter"],"f":1}`
	for _, tenant := range []string{"alice", "bob"} {
		if w := do(t, s, "POST", "/v1/generate", tenant, body, nil); w.Code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tenant, w.Code)
		}
	}
	w := do(t, s, "POST", "/v1/generate", "mallory", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant beyond cap: status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Fatal("tenant-cap 429 without Retry-After")
	}
	// Known tenants are unaffected.
	if w := do(t, s, "POST", "/v1/generate", "alice", body, nil); w.Code != http.StatusOK {
		t.Fatalf("existing tenant after cap: status %d", w.Code)
	}
}

// TestEventsRequestsDoNotInterleave: concurrent events requests to one
// cluster serialize — each response's step advance equals that request's
// own window, so no response ever describes another request's events.
func TestEventsRequestsDoNotInterleave(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`, nil)

	const gs, per, window = 4, 8, 5
	var wg sync.WaitGroup
	steps := make(chan [2]int, gs*per) // {applied, step-after}
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var ev EventsResponse
				w := do(t, s, "POST", "/v1/clusters/c1/events", "",
					`{"random":{"count":5,"seed":3}}`, &ev)
				if w.Code != http.StatusOK {
					t.Errorf("events: status %d", w.Code)
					return
				}
				steps <- [2]int{ev.Applied, ev.Step}
			}
		}()
	}
	wg.Wait()
	close(steps)
	seen := make(map[int]bool)
	for st := range steps {
		if st[0] != window {
			t.Fatalf("response applied %d, want %d", st[0], window)
		}
		// Every response's post-step must be a distinct multiple of the
		// window: requests fully serialized, each seeing its own cut.
		if st[1]%window != 0 || seen[st[1]] {
			t.Fatalf("interleaved or duplicated step %d", st[1])
		}
		seen[st[1]] = true
	}
	var got ClusterResponse
	do(t, s, "GET", "/v1/clusters/c1", "", "", &got)
	if got.Step != gs*per*window {
		t.Fatalf("final step %d, want %d", got.Step, gs*per*window)
	}
}

// TestServerClosed: a closed server refuses everything with 503 and stays
// refused (Close is terminal and idempotent).
func TestServerClosed(t *testing.T) {
	s := mustNew(t, Options{})
	do(t, s, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":1}`, nil)
	s.Close()
	s.Close()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/generate", `{"zoo":["MESI"],"f":1}`},
		{"POST", "/v1/clusters", `{"zoo":["MESI"],"f":1}`},
		{"GET", "/v1/clusters/c1", ""},
	} {
		if w := do(t, s, tc.method, tc.path, "", tc.body, nil); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s on closed server: status %d, want 503", tc.method, tc.path, w.Code)
		}
	}
	var h HealthResponse
	if w := do(t, s, "GET", "/healthz", "", "", &h); w.Code != http.StatusOK || h.Status != "draining" {
		t.Errorf("healthz on closed server: %d %q, want 200 \"draining\"", w.Code, h.Status)
	}
}

// TestSeededClustersDiverge guards the seed plumbing: different seeds
// must be allowed to produce different Byzantine corruption.
func TestSeededClustersDiverge(t *testing.T) {
	s := mustNew(t, Options{})
	defer s.Close()
	states := make([][]int, 2)
	for i, seed := range []int64{3, 4} {
		var cl ClusterResponse
		body := fmt.Sprintf(`{"zoo":["MESI","TCP"],"f":2,"seed":%d}`, seed)
		if w := do(t, s, "POST", "/v1/clusters", "", body, &cl); w.Code != http.StatusCreated {
			t.Fatalf("create %d: %d", seed, w.Code)
		}
		var ev EventsResponse
		w := do(t, s, "POST", "/v1/clusters/"+cl.ID+"/events", "",
			`{"random":{"count":50,"seed":9},"faults":[{"server":"TCP","kind":"byzantine"}]}`, &ev)
		if w.Code != http.StatusOK {
			t.Fatalf("events %d: %d %s", seed, w.Code, w.Body.String())
		}
		states[i] = ev.States
	}
	// Same event stream, same machines: the healthy servers agree; only
	// the Byzantine corruption draws on the cluster seed. (Equality of the
	// corrupted entry is possible but the healthy ones must match.)
	if states[0][0] != states[1][0] {
		t.Fatalf("healthy server states diverged across seeds: %v vs %v", states[0], states[1])
	}
}

// TestResolveZooNoRebuild: a zoo request resolves to the shared zoo
// instances, so the only allocation is the result slice — no machine is
// rebuilt per request.
func TestResolveZooNoRebuild(t *testing.T) {
	req := MachineSetRequest{Zoo: []string{"MESI", "TCP", "A", "B"}}
	first, err := resolveMachines(req)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		ms, err := resolveMachines(req)
		if err != nil || ms[0] != first[0] {
			t.Fatal("zoo resolution changed instances or failed")
		}
	})
	if n != 1 {
		t.Fatalf("resolveMachines(zoo) allocates %.0f times, want 1 (the result slice)", n)
	}
}
