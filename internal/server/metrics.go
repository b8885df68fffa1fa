package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/store"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: per-tenant admission gauges (in-flight, queued, workers,
// clusters), per-cluster simulation counters, and the process-wide
// generation-path counters (Algorithm 2 runs, descents, and the
// incremental descent engine's reuse statistics). Label values need no
// escaping: tenant names are validated to [A-Za-z0-9._-] and cluster ids
// are registry-minted.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })

	s.replMu.Lock()
	role, log, repLeader, follower := s.role, s.log, s.repLeader, s.follower
	s.replMu.Unlock()

	type clusterRow struct {
		tenant, cluster string
		m               sim.MetricsSnapshot
	}
	var rows []clusterRow
	addRows := func(name string, reg *sim.Registry) {
		metrics := reg.Metrics()
		ids := make([]string, 0, len(metrics))
		for id := range metrics {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rows = append(rows, clusterRow{name, id, metrics[id]})
		}
	}
	for _, t := range ts {
		addRows(t.name, t.clusters)
	}
	if role == RoleFollower {
		// A follower has no serving tenants; its cluster counters come
		// from the warm mirrors, so a promoted node's /metrics continues
		// the exact series the old leader was emitting.
		for _, name := range follower.TenantNames() {
			if reg, ok := follower.Registry(name); ok {
				addRows(name, reg)
			}
		}
	}

	var b strings.Builder
	gauge := func(name, help string, value func(t *tenant) int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range ts {
			fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, t.name, value(t))
		}
	}
	gauge("fusiond_tenant_in_flight", "Requests currently admitted by the tenant's engine.",
		func(t *tenant) int { return t.engine.InFlight() })
	gauge("fusiond_tenant_queued", "Requests waiting for admission.",
		func(t *tenant) int { return t.engine.Queued() })
	gauge("fusiond_tenant_workers", "Worker-pool size serving the tenant.",
		func(t *tenant) int { return t.engine.Workers() })
	gauge("fusiond_tenant_clusters", "Live cluster handles.",
		func(t *tenant) int { return t.clusters.Len() })

	counter := func(name, help string, value func(m sim.MetricsSnapshot) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, row := range rows {
			fmt.Fprintf(&b, "%s{tenant=%q,cluster=%q} %d\n", name, row.tenant, row.cluster, value(row.m))
		}
	}
	counter("fusiond_cluster_events_applied_total", "Events broadcast to the cluster.",
		func(m sim.MetricsSnapshot) int64 { return m.EventsApplied })
	counter("fusiond_cluster_faults_injected_total", "Faults injected.",
		func(m sim.MetricsSnapshot) int64 { return m.FaultsInjected })
	counter("fusiond_cluster_recoveries_total", "Successful recovery rounds (Algorithm 3).",
		func(m sim.MetricsSnapshot) int64 { return m.Recoveries })
	counter("fusiond_cluster_failed_recoveries_total", "Recovery rounds with an ambiguous vote.",
		func(m sim.MetricsSnapshot) int64 { return m.FailedRecoveries })
	counter("fusiond_cluster_servers_restored_total", "Server states repaired by recovery.",
		func(m sim.MetricsSnapshot) int64 { return m.ServersRestored })
	counter("fusiond_cluster_liars_caught_total", "Byzantine servers identified.",
		func(m sim.MetricsSnapshot) int64 { return m.LiarsCaught })

	// Replication plane: role, feed position, and per-follower shipping
	// state. fusiond_repl_role is a one-hot gauge (value 1 on the label
	// matching the current role) so dashboards can plot transitions.
	fmt.Fprintf(&b, "# HELP fusiond_repl_role Replication role of this node (one-hot).\n# TYPE fusiond_repl_role gauge\n")
	fmt.Fprintf(&b, "fusiond_repl_role{role=%q} 1\n", role)
	var epoch, logSeq, applied, lag uint64
	switch {
	case role == RoleFollower:
		st := follower.Status()
		epoch, logSeq, applied, lag = st.Epoch, st.LogSeq, st.Applied, st.Lag()
	case log != nil:
		epoch, logSeq, applied = log.Epoch(), log.Seq(), log.Seq()
	}
	for _, g := range []struct {
		name, help string
		v          uint64
	}{
		{"fusiond_repl_epoch", "Replication epoch this node operates under.", epoch},
		{"fusiond_repl_log_seq", "Feed head: own on a leader, last heard from the leader on a follower.", logSeq},
		{"fusiond_repl_applied_seq", "Highest feed seq applied locally.", applied},
		{"fusiond_repl_lag_records", "Feed records this node is behind the head it knows of.", lag},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
	if repLeader != nil {
		stats := repLeader.Stats()
		repGauge := func(name, help string, value func(st repl.ReplicaStatus) uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, st := range stats {
				fmt.Fprintf(&b, "%s{replica=%q} %d\n", name, st.URL, value(st))
			}
		}
		repGauge("fusiond_repl_follower_acked_seq", "Highest feed seq each follower has acknowledged.",
			func(st repl.ReplicaStatus) uint64 { return st.Acked })
		repGauge("fusiond_repl_follower_lag_records", "Feed records each follower is behind this leader.",
			func(st repl.ReplicaStatus) uint64 {
				if logSeq <= st.Acked {
					return 0
				}
				return logSeq - st.Acked
			})
		repGauge("fusiond_repl_follower_fenced", "1 when the follower refused this leader's epoch (it was promoted).",
			func(st repl.ReplicaStatus) uint64 {
				if st.Fenced {
					return 1
				}
				return 0
			})
		fmt.Fprintf(&b, "# HELP fusiond_repl_ship_retries_total Failed shipping exchanges per follower.\n# TYPE fusiond_repl_ship_retries_total counter\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "fusiond_repl_ship_retries_total{replica=%q} %d\n", st.URL, st.Retries)
		}
	}

	// Content-addressed fusion cache: emitted only when the cache is
	// enabled, so the absence of the series itself says the daemon runs
	// uncached.
	if s.fcache != nil {
		cs := s.fcache.Stats()
		for _, c := range []struct {
			name, help string
			v          int64
		}{
			{"fusiond_fcache_hits", "Generate requests served from a live cache entry.", cs.Hits},
			{"fusiond_fcache_misses", "Generate requests that computed (flight leaders).", cs.Misses},
			{"fusiond_fcache_evictions", "Entries evicted past the cache bounds.", cs.Evictions},
			{"fusiond_fcache_coalesced", "Requests that joined another request's in-flight computation.", cs.Coalesced},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
		}
		for _, g := range []struct {
			name, help string
			v          int64
		}{
			{"fusiond_fcache_entries", "Live cache entries.", int64(cs.Entries)},
			{"fusiond_fcache_bytes", "Estimated partition-vector memory held by the cache.", cs.Bytes},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
		}
	}

	// Durability plane: per-tenant WAL write counters from each tenant's
	// store (absent on in-memory daemons), plus the daemon-wide group
	// commit histograms. The batching saving is the ratio of fsyncs_total
	// to records_total.
	if s.storeObs != nil {
		type storeRow struct {
			tenant string
			stats  store.WALStats
		}
		var srows []storeRow
		for _, t := range ts {
			if t.store != nil {
				srows = append(srows, storeRow{t.name, t.store.WALStats()})
			}
		}
		storeCounter := func(name, help string, value func(st store.WALStats) int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, row := range srows {
				fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, row.tenant, value(row.stats))
			}
		}
		storeCounter("fusiond_store_fsyncs_total", "WAL fsyncs issued (group-commit batches and segment preallocations).",
			func(st store.WALStats) int64 { return st.Fsyncs })
		storeCounter("fusiond_store_wal_flushes_total", "WAL commit ticks, one per group-commit batch.",
			func(st store.WALStats) int64 { return st.Flushes })
		storeCounter("fusiond_store_wal_records_total", "WAL records made durable.",
			func(st store.WALStats) int64 { return st.Records })
		s.storeObs.batch.write(&b, "fusiond_store_batch_appends",
			"Staged appends coalesced per group-commit batch.")
		obsv.WriteHistogram(&b, "fusiond_store_flush_seconds",
			"Wall time of each group-commit batch's write+fsync.", s.storeObs.flushSync.Snapshot())
	}

	gen := core.GenerationCounters()
	for _, g := range []struct {
		name, help string
		v          int64
	}{
		{"fusiond_generate_runs_total", "Algorithm 2 generation calls.", gen.Runs},
		{"fusiond_generate_descents_total", "Greedy descents run (one generated machine each).", gen.Descents},
		{"fusiond_generate_levels_total", "Descent levels evaluated.", gen.Levels},
		{"fusiond_generate_cold_closures_total", "From-scratch merge closures evaluated.", gen.ColdClosures},
		{"fusiond_generate_seeded_joins_total", "Pair re-evaluations served by joining the pair's surviving closure with the next level start; pairs that share a closure share one join.", gen.SeededJoins},
		{"fusiond_generate_pruned_skips_total", "Pair evaluations skipped by cross-level violation pruning.", gen.PrunedSkips},
		{"fusiond_generate_implied_cascades_total", "Cold pair closures resolved without a cascade of their own: shared their pair-graph SCC's verdict, were failed by the fail-fast search because they reach a failing pair, or are top pairs of a later descent, decided by the previous descent's carried level-0 verdicts (weakest edges only grow, so a failed top pair stays failed).", gen.ImpliedCascades},
		{"fusiond_generate_seeded_cascades_total", "Pair-graph SCC cascades that absorbed at least one finished successor closure.", gen.SeededCascades},
		{"fusiond_generate_cold_cascades_total", "Pair-graph SCC cascades that ran with no successor closure to absorb.", gen.ColdCascades},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}

	// The observability plane appends last: per-route latency histograms,
	// response-byte counters, build info, and the process gauges.
	if s.obs != nil {
		s.obs.WriteMetrics(&b)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck // client gone; nothing left to do
}
