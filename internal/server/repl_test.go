package server

import (
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/repl"
)

// replPair boots a follower (exposed over real HTTP so the leader's
// shipper can reach it) and a leader configured to ship to it.
func replPair(t *testing.T, leaderExtra func(*Options)) (leader, follower *Server, followerURL string) {
	t.Helper()
	follower = mustNew(t, Options{Role: RoleFollower, DataDir: t.TempDir()})
	t.Cleanup(func() { follower.Close() }) //nolint:errcheck // drain best-effort
	fsrv := httptest.NewServer(follower.Handler())
	t.Cleanup(fsrv.Close)

	opts := Options{
		Role:     RoleLeader,
		DataDir:  t.TempDir(),
		Replicas: []string{fsrv.URL},
	}
	if leaderExtra != nil {
		leaderExtra(&opts)
	}
	leader = mustNew(t, opts)
	t.Cleanup(func() { leader.Close() }) //nolint:errcheck // drain best-effort
	return leader, follower, fsrv.URL
}

// awaitCaughtUp polls until the follower has applied the leader's feed
// head (the shipper is push-based; this only bounds test flakiness).
func awaitCaughtUp(t *testing.T, leader, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		head := leader.log.Seq()
		st := follower.follower.Status()
		if st.Epoch == leader.log.Epoch() && st.Applied >= head {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %+v; leader head %d", st, head)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsClusterLines extracts the per-cluster counter series — the part
// of /metrics that must survive a failover unchanged. Role and feed
// gauges legitimately differ between the nodes.
func metricsClusterLines(t *testing.T, s *Server) string {
	t.Helper()
	w := do(t, s, "GET", "/metrics", "", "", nil)
	var keep []string
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if strings.HasPrefix(line, "fusiond_cluster_") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestReplicatedFailover is the end-to-end drill: drive a leader, let it
// ship, kill it, promote the follower, and verify the promoted node
// serves the exact same state and keeps accepting writes.
func TestReplicatedFailover(t *testing.T) {
	leader, follower, _ := replPair(t, nil)

	var created ClusterResponse
	if w := do(t, leader, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1,"seed":7}`, &created); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	id := created.ID
	events := fmt.Sprintf(`{"events":["0","1","1"],"faults":[{"server":%q,"kind":"crash"}]}`, created.Servers[len(created.Servers)-1])
	if w := do(t, leader, "POST", "/v1/clusters/"+id+"/events", "", events, nil); w.Code != http.StatusOK {
		t.Fatalf("events: %d %s", w.Code, w.Body)
	}
	awaitCaughtUp(t, leader, follower)

	// The replica serves the same GET body byte for byte; staleness is
	// headers-only.
	leaderGet := do(t, leader, "GET", "/v1/clusters/"+id, "", "", nil)
	followerGet := do(t, follower, "GET", "/v1/clusters/"+id, "", "", nil)
	if followerGet.Code != http.StatusOK {
		t.Fatalf("follower GET: %d %s", followerGet.Code, followerGet.Body)
	}
	if leaderGet.Body.String() != followerGet.Body.String() {
		t.Fatalf("replica body diverges:\nleader:   %s\nfollower: %s", leaderGet.Body, followerGet.Body)
	}
	if got := followerGet.Header().Get("X-Fusion-Role"); got != RoleFollower {
		t.Fatalf("X-Fusion-Role = %q", got)
	}
	if followerGet.Header().Get("X-Fusion-Applied-Seq") == "" {
		t.Fatal("follower read missing X-Fusion-Applied-Seq")
	}
	if got := followerGet.Header().Get("X-Fusion-Replication-Lag"); got != "0" {
		t.Fatalf("caught-up follower lag header = %q, want 0", got)
	}
	// Every response names the role that served it (the observability
	// middleware stamps it), but the staleness pair stays follower-only.
	if got := leaderGet.Header().Get("X-Fusion-Role"); got != RoleLeader {
		t.Fatalf("leader read role header = %q, want %q", got, RoleLeader)
	}
	if leaderGet.Header().Get("X-Fusion-Applied-Seq") != "" || leaderGet.Header().Get("X-Fusion-Replication-Lag") != "" {
		t.Fatal("leader reads must not carry replica staleness headers")
	}

	// Readiness: both sides ready, each for its own role.
	var ready ReadyResponse
	if w := do(t, follower, "GET", "/readyz", "", "", &ready); w.Code != http.StatusOK || !ready.Ready {
		t.Fatalf("follower /readyz: %d %+v", w.Code, ready)
	}
	if ready.Role != RoleFollower {
		t.Fatalf("follower /readyz role = %q", ready.Role)
	}
	if w := do(t, leader, "GET", "/readyz", "", "", &ready); w.Code != http.StatusOK || !ready.Ready || ready.Role != RoleLeader {
		t.Fatalf("leader /readyz: %d %+v", w.Code, ready)
	}

	// The replica's /healthz reports the leader's per-cluster counters.
	var leaderHealth, followerHealth HealthResponse
	do(t, leader, "GET", "/healthz", "", "", &leaderHealth)
	do(t, follower, "GET", "/healthz", "", "", &followerHealth)
	lm, fm := leaderHealth.Tenants["default"].ClusterMetrics, followerHealth.Tenants["default"].ClusterMetrics
	if len(lm) == 0 || !maps.Equal(lm, fm) {
		t.Fatalf("follower /healthz cluster metrics %+v, leader %+v", fm, lm)
	}

	preKillBody := leaderGet.Body.String()
	preKillMetrics := metricsClusterLines(t, leader)
	oldEpoch := leader.log.Epoch()

	// Kill the leader (process gone: shipper stops, no goodbye).
	leader.Close() //nolint:errcheck // simulating a crash

	// Promote the follower and verify continuity.
	var promoted repl.NodeStatus
	if w := do(t, follower, "POST", "/repl/promote", "", "", &promoted); w.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", w.Code, w.Body)
	}
	if promoted.Role != RoleLeader || promoted.Epoch <= oldEpoch {
		t.Fatalf("promoted to %+v, want leader with epoch > %d", promoted, oldEpoch)
	}
	postGet := do(t, follower, "GET", "/v1/clusters/"+id, "", "", nil)
	if postGet.Code != http.StatusOK || postGet.Body.String() != preKillBody {
		t.Fatalf("promoted GET diverges from pre-kill leader:\npre:  %s\npost: %s", preKillBody, postGet.Body)
	}
	if got := postGet.Header().Get("X-Fusion-Role"); got != RoleLeader {
		t.Fatalf("promoted read role header = %q, want %q", got, RoleLeader)
	}
	if postGet.Header().Get("X-Fusion-Applied-Seq") != "" || postGet.Header().Get("X-Fusion-Replication-Lag") != "" {
		t.Fatal("promoted node still stamps follower staleness headers")
	}
	if got := metricsClusterLines(t, follower); got != preKillMetrics {
		t.Fatalf("cluster metric series broke across failover:\npre:\n%s\npost:\n%s", preKillMetrics, got)
	}
	if w := do(t, follower, "GET", "/readyz", "", "", &ready); w.Code != http.StatusOK || !ready.Ready || ready.Role != RoleLeader {
		t.Fatalf("promoted /readyz: %d %+v", w.Code, ready)
	}

	// The promoted node accepts writes on the inherited cluster...
	var ev EventsResponse
	if w := do(t, follower, "POST", "/v1/clusters/"+id+"/events", "", `{"events":["0"]}`, &ev); w.Code != http.StatusOK {
		t.Fatalf("post-promotion events: %d %s", w.Code, w.Body)
	}
	if ev.Step != created.Backups+0 && ev.Applied != 1 {
		t.Fatalf("post-promotion apply: %+v", ev)
	}
	// ...and mints fresh ids past the old leader's sequence instead of
	// reusing the dead one's namespace.
	var again ClusterResponse
	if w := do(t, follower, "POST", "/v1/clusters", "", `{"zoo":["0-Counter"],"f":1}`, &again); w.Code != http.StatusCreated {
		t.Fatalf("post-promotion create: %d %s", w.Code, w.Body)
	}
	if again.ID == id {
		t.Fatalf("promoted node re-minted cluster id %q", id)
	}
	// Recovery (Algorithm 3) still runs on the inherited state.
	if w := do(t, follower, "POST", "/v1/clusters/"+id+"/recover", "", "", nil); w.Code != http.StatusOK {
		t.Fatalf("post-promotion recover: %d %s", w.Code, w.Body)
	}
}

// TestFollowerShedsMutations: a follower refuses every mutating route
// with 503, a Leader location hint, and a Retry-After.
func TestFollowerShedsMutations(t *testing.T) {
	f := mustNew(t, Options{Role: RoleFollower, DataDir: t.TempDir(), LeaderURL: "http://primary:8080"})
	t.Cleanup(func() { f.Close() }) //nolint:errcheck // drain best-effort

	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/clusters", `{"zoo":["0-Counter"],"f":1}`},
		{"DELETE", "/v1/clusters/c1", ""},
		{"POST", "/v1/clusters/c1/events", `{"events":["0"]}`},
		{"POST", "/v1/clusters/c1/recover", ""},
	} {
		w := do(t, f, tc.method, tc.path, "", tc.body, nil)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on follower: %d, want 503", tc.method, tc.path, w.Code)
		}
		if got := w.Header().Get("Leader"); got != "http://primary:8080" {
			t.Fatalf("%s %s: Leader hint = %q", tc.method, tc.path, got)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s: no Retry-After", tc.method, tc.path)
		}
	}

	// Before any leader contact the follower is alive but not ready.
	w := do(t, f, "GET", "/healthz", "", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz on isolated follower: %d", w.Code)
	}
	var ready ReadyResponse
	if w := do(t, f, "GET", "/readyz", "", "", &ready); w.Code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("isolated follower /readyz: %d %+v, want 503 not-ready", w.Code, ready)
	}
	if ready.Reason == "" {
		t.Fatal("not-ready response carries no reason")
	}
}

// TestQuorumAck: with -ack quorum a mutation's response waits for a
// follower majority and says so; with the replica unreachable the write
// still succeeds but the header degrades to the local guarantee.
func TestQuorumAck(t *testing.T) {
	leader, follower, _ := replPair(t, func(o *Options) {
		o.QuorumAck = true
		o.AckTimeout = 10 * time.Second
	})
	var created ClusterResponse
	w := do(t, leader, "POST", "/v1/clusters", "", `{"zoo":["0-Counter","1-Counter"],"f":1}`, &created)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Fusion-Ack"); got != "quorum" {
		t.Fatalf("X-Fusion-Ack = %q, want quorum", got)
	}
	// Reads replicate nothing and carry no ack header.
	if w := do(t, leader, "GET", "/v1/clusters/"+created.ID, "", "", nil); w.Header().Get("X-Fusion-Ack") != "" {
		t.Fatal("GET carried an ack header")
	}
	// A client may lower the wait per request; an impossible bound
	// degrades the header, never the write.
	r := httptest.NewRequest("POST", "/v1/clusters/"+created.ID+"/events", strings.NewReader(`{"events":["0"]}`))
	r.Header.Set("X-Fusion-Ack-Timeout", "1ns")
	rec := httptest.NewRecorder()
	leader.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("events with tiny ack timeout: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Fusion-Ack"); got != "leader" && got != "quorum" {
		t.Fatalf("X-Fusion-Ack = %q, want leader or quorum", got)
	}
	_ = follower
}

func TestQuorumAckDegradesWhenReplicaDown(t *testing.T) {
	leader := mustNew(t, Options{
		Role:       RoleLeader,
		DataDir:    t.TempDir(),
		Replicas:   []string{"http://127.0.0.1:1"},
		QuorumAck:  true,
		AckTimeout: 50 * time.Millisecond,
	})
	t.Cleanup(func() { leader.Close() }) //nolint:errcheck // drain best-effort
	w := do(t, leader, "POST", "/v1/clusters", "", `{"zoo":["0-Counter"],"f":1}`, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("create with dead replica: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Fusion-Ack"); got != "leader" {
		t.Fatalf("X-Fusion-Ack = %q, want degraded \"leader\"", got)
	}
}

// TestRetryAfterJitterSpreads: the backoff hint must not march every
// shed client back through the door in the same second.
func TestRetryAfterJitterSpreads(t *testing.T) {
	s := mustNew(t, Options{QueueTimeout: 3 * time.Second, MaxInFlight: 1, QueueDepth: 1})
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // drain best-effort
	seen := map[string]int{}
	for i := 0; i < 400; i++ {
		seen[s.retryAfter()]++
	}
	// Base 3s, jitter up to double: every value in [3,6], and the draws
	// must actually spread — a constant hint is the herd bug itself.
	for v := range seen {
		if v != "3" && v != "4" && v != "5" && v != "6" {
			t.Fatalf("Retry-After %q outside [3,6]", v)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("400 draws produced only %d distinct hints (%v); jitter is not spreading", len(seen), seen)
	}
	// Determinism hook: with injected randomness the hint is exact.
	fixed := mustNew(t, Options{Rand: func() float64 { return 0.99 }})
	t.Cleanup(func() { fixed.Close() }) //nolint:errcheck // drain best-effort
	if got := fixed.retryAfter(); got != "2" {
		t.Fatalf("retryAfter with rand=0.99, base 1s = %q, want 2", got)
	}
}

// TestReplStatusAndFeedEndpoints: the operator-facing views of the
// replication plane.
func TestReplStatusAndFeedEndpoints(t *testing.T) {
	leader, follower, _ := replPair(t, nil)
	var created ClusterResponse
	if w := do(t, leader, "POST", "/v1/clusters", "", `{"zoo":["0-Counter"],"f":1}`, &created); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	awaitCaughtUp(t, leader, follower)

	var st repl.NodeStatus
	if w := do(t, leader, "GET", "/repl/status", "", "", &st); w.Code != http.StatusOK || st.Role != RoleLeader {
		t.Fatalf("leader /repl/status: %d %+v", w.Code, st)
	}
	if st.LogSeq == 0 {
		t.Fatal("leader status shows an empty feed after a create")
	}
	if w := do(t, follower, "GET", "/repl/status", "", "", &st); w.Code != http.StatusOK || st.Role != RoleFollower {
		t.Fatalf("follower /repl/status: %d %+v", w.Code, st)
	}
	if st.Lag() != 0 {
		t.Fatalf("caught-up follower reports lag %d", st.Lag())
	}

	var batch repl.Batch
	if w := do(t, leader, "GET", "/repl/feed?after=0", "", "", &batch); w.Code != http.StatusOK {
		t.Fatalf("/repl/feed: %d %s", w.Code, w.Body)
	}
	if len(batch.Ops) == 0 || batch.Epoch != leader.log.Epoch() {
		t.Fatalf("/repl/feed returned %d ops at epoch %d", len(batch.Ops), batch.Epoch)
	}
	// A follower has no feed to serve.
	if w := do(t, follower, "GET", "/repl/feed", "", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("follower /repl/feed: %d, want 404", w.Code)
	}
	// Mis-addressed shipping: a leader refuses batches with its status.
	if w := do(t, leader, "POST", "/repl/apply", "", `{"epoch":1,"logSeq":1}`, &st); w.Code != http.StatusConflict || st.Role != RoleLeader {
		t.Fatalf("apply to leader: %d %+v, want 409 + role", w.Code, st)
	}
	// Promoting a node that is already a leader is refused.
	if w := do(t, leader, "POST", "/repl/promote", "", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote leader: %d, want 409", w.Code)
	}

	// /metrics exposes the replication plane on both roles.
	lm := do(t, leader, "GET", "/metrics", "", "", nil).Body.String()
	for _, want := range []string{
		`fusiond_repl_role{role="leader"} 1`,
		"fusiond_repl_log_seq",
		"fusiond_repl_follower_acked_seq",
		"fusiond_repl_ship_retries_total",
	} {
		if !strings.Contains(lm, want) {
			t.Fatalf("leader /metrics missing %q", want)
		}
	}
	fm := do(t, follower, "GET", "/metrics", "", "", nil).Body.String()
	for _, want := range []string{
		`fusiond_repl_role{role="follower"} 1`,
		"fusiond_repl_applied_seq",
		"fusiond_repl_lag_records",
		"fusiond_cluster_events_applied_total",
	} {
		if !strings.Contains(fm, want) {
			t.Fatalf("follower /metrics missing %q", want)
		}
	}
}

// TestFollowerServesGenerate: fusion generation is a pure function of the
// request, so a follower answers POST /v1/generate locally — 200, with
// the staleness headers marking which node answered, and a body
// byte-identical to the leader's for the same request.
func TestFollowerServesGenerate(t *testing.T) {
	leader, follower, _ := replPair(t, func(o *Options) { o.FusionCache = 64 })

	const body = `{"zoo":["0-Counter","1-Counter"],"f":1}`
	lw := do(t, leader, "POST", "/v1/generate", "", body, nil)
	if lw.Code != http.StatusOK {
		t.Fatalf("leader generate: %d\n%s", lw.Code, lw.Body.String())
	}
	fw := do(t, follower, "POST", "/v1/generate", "", body, nil)
	if fw.Code != http.StatusOK {
		t.Fatalf("follower generate: %d\n%s", fw.Code, fw.Body.String())
	}
	if got := fw.Header().Get("X-Fusion-Role"); got != RoleFollower {
		t.Fatalf("follower generate role header = %q, want %q", got, RoleFollower)
	}
	if fw.Header().Get("X-Fusion-Applied-Seq") == "" || fw.Header().Get("X-Fusion-Replication-Lag") == "" {
		t.Fatal("follower generate missing staleness headers")
	}
	if lw.Body.String() != fw.Body.String() {
		t.Fatalf("follower generate body differs from leader's:\nleader:  %s\nfollower: %s",
			lw.Body.String(), fw.Body.String())
	}

	// Bad requests fail on the follower the same way they do on a leader —
	// locally, not with a 503 redirect.
	if w := do(t, follower, "POST", "/v1/generate", "", `{"zoo":["nope"],"f":1}`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("follower generate with unknown machine: %d, want 400", w.Code)
	}
}
