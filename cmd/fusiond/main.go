// Command fusiond is the long-running HTTP/JSON service front-end over
// fusion.Engine: fusion generation (Algorithm 2), simulated deployments
// with event broadcast and fault injection, and fused-state recovery
// (Algorithm 3) as endpoints, with per-tenant engines and engine-level
// admission control so a flood of requests degrades into bounded queueing
// and fast 429s instead of unbounded goroutines on the worker pool.
//
// Usage:
//
//	fusiond -addr :8080
//	fusiond -addr :8080 -workers 8 -max-inflight 4 -queue-depth 16 -queue-timeout 2s
//
// Replicated (leader ships every durable mutation to followers; kill the
// leader, promote a follower, keep serving — see examples/fusiond):
//
//	fusiond -addr :8080 -data-dir /var/lib/fusiond -role leader -replicas http://backup:8081
//	fusiond -addr :8081 -data-dir /var/lib/fusiond-b -role follower -leader-url http://primary:8080
//	fusiond -promote -addr :8081    # failover: make the follower the leader
//
// Probe it:
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/generate -d '{"zoo":["0-Counter","1-Counter"],"f":1}'
//
// See examples/fusiond for a full generate → cluster → inject-fault →
// recover transcript. SIGINT/SIGTERM shut the daemon down gracefully:
// in-flight requests finish, queued ones are refused, engines drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// onListen, when non-nil, receives the server once it listens, so an
// in-process test can reach its tenants' engines.
var onListen func(*server.Server)

// runPromote is the -promote one-shot client: it asks the daemon at addr
// (a follower) to promote itself and prints the resulting role/epoch.
// Split from serving so failover needs no second binary — the operator
// (or the failover script) reuses fusiond itself.
func runPromote(out io.Writer, addr string) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + strings.TrimPrefix(url, ":")
		if strings.HasPrefix(addr, ":") {
			url = "http://localhost" + addr
		}
	}
	url = strings.TrimRight(url, "/") + "/repl/promote"
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // best-effort detail
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Fprintf(out, "fusiond: promoted: %s\n", strings.TrimSpace(string(body)))
	return nil
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fusiond:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fusiond", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "per-tenant worker-pool size (0 = share the process-wide pool)")
		maxInflight  = fs.Int("max-inflight", 0, "per-tenant concurrent request limit (0 = unlimited)")
		queueDepth   = fs.Int("queue-depth", 0, "per-tenant admission queue length beyond max-inflight")
		queueTimeout = fs.Duration("queue-timeout", 0, "how long a queued request waits before 429 (0 = until client disconnect)")
		maxClusters  = fs.Int("max-clusters", 64, "live clusters per tenant (-1 = unbounded)")
		maxTenants   = fs.Int("max-tenants", 64, "distinct tenants served before shedding new names (-1 = unbounded)")
		tenantHeader = fs.String("tenant-header", "X-Fusion-Tenant", "header naming the tenant")
		grace        = fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight HTTP exchanges")
		dataDir      = fs.String("data-dir", "", "persist cluster registries here and recover them at boot (empty = in-memory)")
		compactEvery = fs.Int("compact-every", 0, "WAL records per cluster between snapshot compactions (0 = default)")
		batchBytes   = fs.Int("group-batch-bytes", 0, "flush a pending group-commit batch early at this size (0 = default 1MiB)")
		batchDelay   = fs.Duration("group-batch-delay", 0, "extra linger before each group-commit flush so batches fill (0 = flush as soon as the disk is free)")
		role         = fs.String("role", "", "replication role: \"leader\" or \"follower\" (empty = no replication)")
		leaderURL    = fs.String("leader-url", "", "follower: the leader's base URL, advertised when shedding writes")
		replicas     = fs.String("replicas", "", "leader: comma-separated follower base URLs to ship the op feed to")
		ack          = fs.String("ack", "leader", "write acknowledgement mode: \"leader\" (locally durable) or \"quorum\" (majority of the replication group)")
		ackTimeout   = fs.Duration("ack-timeout", 2*time.Second, "per-request bound on the quorum-ack wait")
		lagThreshold = fs.Uint64("lag-threshold", 0, "follower: feed lag (records) past which /readyz reports 503 (0 = default)")
		fusionCache  = fs.Int("fusion-cache", 4096, "content-addressed fusion cache entries; repeats of a generate request are served without recomputation (0 = disable)")
		prewarmZoo   = fs.Bool("prewarm-zoo", true, "pre-generate the built-in machine-zoo catalog into the fusion cache after boot")
		pprof        = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes heap contents; opt-in)")
		accessLog    = fs.Int("access-log", 0, "in-memory access-log ring size served at GET /debug/log (0 = default 1024, -1 = disable)")
		slowRequest  = fs.Duration("slow-request", 0, "log requests slower than this and count them in fusiond_http_slow_requests_total (0 = off)")
		promote      = fs.Bool("promote", false, "one-shot client: ask the follower at -addr to promote itself to leader, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *promote {
		return runPromote(out, *addr)
	}
	if (*queueDepth > 0 || *queueTimeout > 0) && *maxInflight <= 0 {
		return fmt.Errorf("-queue-depth/-queue-timeout do nothing without -max-inflight")
	}
	if *compactEvery > 0 && *dataDir == "" {
		return fmt.Errorf("-compact-every does nothing without -data-dir")
	}
	if (*batchBytes > 0 || *batchDelay > 0) && *dataDir == "" {
		return fmt.Errorf("-group-batch-bytes/-group-batch-delay do nothing without -data-dir")
	}
	if *batchBytes < 0 || *batchDelay < 0 {
		return fmt.Errorf("-group-batch-bytes/-group-batch-delay must be >= 0")
	}
	if *fusionCache < 0 {
		return fmt.Errorf("-fusion-cache must be >= 0 (0 disables the cache)")
	}
	var replicaList []string
	if *replicas != "" {
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicaList = append(replicaList, strings.TrimRight(u, "/"))
			}
		}
	}
	switch *role {
	case "":
		if len(replicaList) > 0 {
			return fmt.Errorf("-replicas requires -role leader")
		}
		if *leaderURL != "" {
			return fmt.Errorf("-leader-url requires -role follower")
		}
	case server.RoleLeader:
		if *dataDir == "" {
			return fmt.Errorf("-role leader requires -data-dir (replication epochs must survive restarts)")
		}
	case server.RoleFollower:
		if *dataDir == "" {
			return fmt.Errorf("-role follower requires -data-dir")
		}
		if len(replicaList) > 0 {
			return fmt.Errorf("-replicas is a leader flag; a follower ships nothing until promoted")
		}
	default:
		return fmt.Errorf("-role %q: use \"leader\" or \"follower\"", *role)
	}
	var quorum bool
	switch *ack {
	case "leader":
	case "quorum":
		if len(replicaList) == 0 {
			return fmt.Errorf("-ack quorum does nothing without -replicas")
		}
		quorum = true
	default:
		return fmt.Errorf("-ack %q: use \"leader\" or \"quorum\"", *ack)
	}

	srv, err := server.New(server.Options{
		TenantHeader:    *tenantHeader,
		Workers:         *workers,
		MaxInFlight:     *maxInflight,
		QueueDepth:      *queueDepth,
		QueueTimeout:    *queueTimeout,
		MaxClusters:     *maxClusters,
		MaxTenants:      *maxTenants,
		DataDir:         *dataDir,
		CompactEvery:    *compactEvery,
		GroupBatchBytes: *batchBytes,
		GroupBatchDelay: *batchDelay,
		Role:            *role,
		Replicas:        replicaList,
		LeaderURL:       strings.TrimRight(*leaderURL, "/"),
		QuorumAck:       quorum,
		AckTimeout:      *ackTimeout,
		LagThreshold:    *lagThreshold,
		FusionCache:     *fusionCache,
		PrewarmZoo:      *prewarmZoo && *fusionCache > 0,
		Pprof:           *pprof,
		AccessLog:       *accessLog,
		SlowRequest:     *slowRequest,
	})
	if err != nil {
		return err
	}
	if *role != "" {
		fmt.Fprintf(out, "fusiond: replication role %s\n", *role)
	}
	if *dataDir != "" {
		fmt.Fprintf(out, "fusiond: recovered durable state from %s\n", *dataDir)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	if onListen != nil {
		onListen(srv)
	}
	fmt.Fprintf(out, "fusiond: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	case <-sigCtx.Done():
	}
	// Unregister the handler right away: a second SIGTERM/SIGINT during a
	// long drain gets default treatment (kill) instead of being swallowed.
	stop()

	// Drain the engines first: new requests are refused with 503, queued
	// admissions fail over, and Close returns once every admitted request
	// has finished — handlers complete and answer on their still-open
	// connections — and, with -data-dir, every cluster journal is
	// compacted into a final snapshot. Only then close the listener and
	// reap idle exchanges. The drain itself is bounded by the grace
	// period: a request that will not finish must not make the daemon
	// unkillable by SIGTERM (a skipped final snapshot only means the next
	// boot replays WAL tails instead).
	fmt.Fprintln(out, "fusiond: shutting down")
	drained := make(chan struct{})
	go func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(out, "fusiond: drain snapshot: %v\n", err)
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(*grace):
		fmt.Fprintln(out, "fusiond: drain grace expired; exiting with requests in flight")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(out, "fusiond: shutdown: %v\n", err)
	}
	fmt.Fprintln(out, "fusiond: drained")
	return nil
}
