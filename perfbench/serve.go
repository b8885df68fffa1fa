package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fusion "repro"
	"repro/internal/fcache"
	"repro/internal/server"
)

// libraryResponse is what POST /v1/generate must answer for machines ms
// and budget f: the library's own result in the wire shape.
func libraryResponse(ms []*fusion.Machine, f int) (server.GenerateResponse, []fusion.Partition, error) {
	sys, err := fusion.NewSystem(ms)
	if err != nil {
		return server.GenerateResponse{}, nil, err
	}
	parts, err := fusion.DefaultEngine().Generate(sys, f)
	if err != nil {
		return server.GenerateResponse{}, nil, err
	}
	resp := server.GenerateResponse{N: sys.N(), F: f, Backups: []server.BackupResponse{}}
	for _, m := range ms {
		resp.Machines = append(resp.Machines, m.Name())
	}
	for _, p := range parts {
		resp.Backups = append(resp.Backups, server.BackupResponse{States: p.NumBlocks(), Blocks: p.Blocks()})
	}
	return resp, parts, nil
}

// replyDigest identifies a generate reply by its content rather than
// its formatting: the SHA-256 of the decoded reply, re-encoded.
func replyDigest(body []byte) ([32]byte, error) {
	var got server.GenerateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return [32]byte{}, fmt.Errorf("decoding generate reply: %w", err)
	}
	return sha256.Sum256(mustJSON(got)), nil
}

// checkReply compares a generate reply's digest with the library's
// result for machines ms and budget f.
func checkReply(got [32]byte, ms []*fusion.Machine, f int) error {
	want, _, err := libraryResponse(ms, f)
	if err != nil {
		return fmt.Errorf("library generate: %w", err)
	}
	if got != sha256.Sum256(mustJSON(want)) {
		return fmt.Errorf("generate reply for %v f=%d differs from the library's result", want.Machines, f)
	}
	return nil
}

// serveSetup is one booted serve-mixed stack with its warmed catalog.
type serveSetup struct {
	st     *stack
	cat    []catalogEntry
	want   [][]byte // verified reply body per catalog entry
	stream *serveStream
}

func setupServe(cfg *config, accessLog int) (*serveSetup, error) {
	root, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	st, err := bootSingle(root, accessLog)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	s := &serveSetup{st: st, cat: catalog(cfg.seed), stream: newServeStream(cfg.seed)}
	// Warm every catalog entry, and the zoo pre-warmer's own sets so its
	// background walk has finished before the window opens.
	var bodies [][]byte
	for _, set := range fcache.PrewarmSets() {
		bodies = append(bodies, mustJSON(map[string]any{"zoo": set, "f": 1}))
	}
	for _, e := range s.cat {
		bodies = append(bodies, e.body)
	}
	replies := make([][]byte, len(bodies))
	transport := newTransport(warmers)
	defer transport.CloseIdleConnections()
	idx := make([]int, len(bodies))
	for i := range idx {
		idx[i] = i
	}
	if _, err := fanOut(warmers, idx, time.Hour, func(i int) error {
		cl := &client{hc: &http.Client{Transport: transport, Timeout: time.Minute}}
		r, err := cl.do(http.MethodPost, st.leader.url+"/v1/generate", bodies[i], "")
		if err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d, %v", bodies[i], r.status, err)
		}
		replies[i] = append([]byte(nil), r.body...)
		return nil
	}); err != nil {
		return nil, errors.Join(err, st.close())
	}
	s.want = replies[len(bodies)-len(s.cat):]
	return s, nil
}

// warmers is how many callers warm the catalog concurrently. Every
// cache insert is an atomic file write with its own fsyncs; concurrent
// callers overlap those with Algorithm 2 on the other CPUs, so set-up
// time follows the disk's fsync latency less.
const warmers = 8

// serveClients is the closed-loop caller count. One caller leaves the
// server a spare CPU: a miss then runs Algorithm 2 without queueing
// behind the other caller's hits, and a CPU the hypervisor steals
// matters less. With one caller per CPU the spreads across runs were
// about a third wider on the reference box.
const serveClients = 1

// executed names one operation a traced window ran and the request id of
// its first request, which its replay spans name as their parent.
type executed struct {
	i   int
	req string
}

// serveWindow drives the stack for dur, starting at operation *next.
// With rec non-nil, requests carry ids and are traced.
func serveWindow(s *serveSetup, dur time.Duration, next *atomic.Int64, rec *recorder) (*tally, time.Duration, [][]executed, []func() error) {
	clients := serveClients
	transport := newTransport(clients)
	defer transport.CloseIdleConnections()
	var reqSeq atomic.Int64
	url := s.st.leader.url
	later := make([][]func() error, clients)
	execs := make([][]executed, clients)
	tallies, elapsed := closedLoop(clients, dur, transport, next, func(c int, cl *client, t *tally, i int) {
		op := s.stream.at(i)
		switch op.Kind {
		case opHit:
			e := &s.cat[op.Catalog]
			r, ok := t.send(cl, rec, &reqSeq, "generate_hit", http.MethodPost, url+"/v1/generate", e.body, http.StatusOK)
			t.generates++
			if !ok {
				return
			}
			if r.cache == "hit" || r.cache == "coalesced" {
				t.hits++
			}
			if string(r.body) != string(s.want[op.Catalog]) {
				t.fail(fmt.Errorf("catalog %s: reply differs from its verified body", e.key()))
			}
		case opMiss:
			body := mustJSON(server.GenerateRequest{MachineSetRequest: server.MachineSetRequest{Spec: op.Spec}, F: op.F})
			r, ok := t.send(cl, rec, &reqSeq, "generate_miss", http.MethodPost, url+"/v1/generate", body, http.StatusOK)
			t.generates++
			if !ok {
				return
			}
			if r.cache == "hit" || r.cache == "coalesced" {
				t.hits++
			}
			// Only the reply's digest is kept; the library result it is
			// compared with is computed after the window.
			got, err := replyDigest(r.body)
			if err != nil {
				t.fail(fmt.Errorf("miss op %d: %w", op.Index, err))
				return
			}
			later[c] = append(later[c], func() error {
				op := s.stream.at(i)
				ms, err := fusion.ParseSpec(strings.NewReader(op.Spec))
				if err != nil {
					return err
				}
				if err := checkReply(got, ms, op.F); err != nil {
					return fmt.Errorf("miss op %d: %w", op.Index, err)
				}
				return nil
			})
		case opChurn:
			churn(cl, t, rec, &reqSeq, url, op)
		}
		if rec != nil {
			execs[c] = append(execs[c], executed{i: i, req: t.opReq})
		}
	})
	var checks []func() error
	for _, l := range later {
		checks = append(checks, l...)
	}
	return merge(tallies), elapsed, execs, checks
}

// churn runs one cluster lifecycle: create, 16 events with a crash,
// recover, GET, DELETE, checking each reply.
func churn(cl *client, t *tally, rec *recorder, reqSeq *atomic.Int64, url string, op serveOp) {
	body := mustJSON(server.ClusterCreateRequest{MachineSetRequest: server.MachineSetRequest{Zoo: clusterSets[op.Set]}, F: 1, Seed: op.Seed})
	r, ok := t.send(cl, rec, reqSeq, "cluster", http.MethodPost, url+"/v1/clusters", body, http.StatusCreated)
	if !ok {
		return
	}
	var cr server.ClusterResponse
	if err := json.Unmarshal(r.body, &cr); err != nil || cr.ID == "" {
		t.fail(fmt.Errorf("churn op %d: bad create reply: %v", op.Index, err))
		return
	}
	base := url + "/v1/clusters/" + cr.ID
	crashed := cr.Servers[op.Crash%len(cr.Servers)]
	body = mustJSON(server.EventsRequest{Events: op.Events, Faults: []server.FaultRequest{{Server: crashed, Kind: "crash"}}})
	if r, ok = t.send(cl, rec, reqSeq, "cluster", http.MethodPost, base+"/events", body, http.StatusOK); !ok {
		return
	}
	var er server.EventsResponse
	if err := json.Unmarshal(r.body, &er); err != nil || er.Applied != eventsPerOp || er.Step != eventsPerOp {
		t.fail(fmt.Errorf("churn op %d: events reply applied %d step %d (%v)", op.Index, er.Applied, er.Step, err))
		return
	}
	if r, ok = t.send(cl, rec, reqSeq, "cluster", http.MethodPost, base+"/recover", nil, http.StatusOK); !ok {
		return
	}
	var rr server.RecoverResponse
	if err := json.Unmarshal(r.body, &rr); err != nil || !rr.Consistent || !contains(rr.Restored, crashed) {
		t.fail(fmt.Errorf("churn op %d: recovery of %s not consistent (%v)", op.Index, crashed, err))
		return
	}
	if r, ok = t.send(cl, rec, reqSeq, "cluster", http.MethodGet, base, nil, http.StatusOK); !ok {
		return
	}
	var gr server.ClusterResponse
	if err := json.Unmarshal(r.body, &gr); err != nil || gr.Step != eventsPerOp || !reflect.DeepEqual(gr.States, rr.States) {
		t.fail(fmt.Errorf("churn op %d: GET after recovery disagrees (%v)", op.Index, err))
		return
	}
	t.send(cl, rec, reqSeq, "cluster", http.MethodDelete, base, nil, http.StatusNoContent)
}

// runServeMixed measures fusiond's read-mostly service path: Zipf
// catalog hits, a minority of fresh-spec misses, and cluster churn.
func runServeMixed(cfg *config) (*outcome, error) {
	o := newOutcome()
	ring := 0
	if cfg.trace {
		ring = traceRing
	}
	s, setup, err := setupMedian(o, func() (*serveSetup, error) { return setupServe(cfg, ring) },
		func(s *serveSetup) error { return s.st.close() })
	if err != nil {
		return nil, err
	}
	defer func() { o.check(s.st.close()) }()
	o.metrics["setup_s"] = setup

	// Catalog replies are compared byte for byte with the warm-up reply,
	// which is checked against the library here, outside the window.
	for k, e := range s.cat {
		got, err := replyDigest(s.want[k])
		if err == nil {
			err = checkReply(got, zooMachines(e.Zoo), e.F)
		}
		o.check(err)
	}

	var next atomic.Int64
	window := cfg.dur
	if cfg.trace {
		window = cfg.dur / 2
	}
	rss := startRSS(window)
	t, elapsed, _, checks := serveWindow(s, window, &next, nil)
	rss.finish(o)
	o.count(t)
	o.setE2E(t.bins, false, httpTailQ)
	untracedRate := float64(t.attempted) / elapsed.Seconds()
	o.notef("serve-mixed: %d requests in %.2fs; generate hits %d of %d", t.attempted, elapsed.Seconds(), t.hits, t.generates)

	if cfg.trace {
		rec := newRecorder()
		smp := startSampler(s.st, rec)
		tt, telapsed, execs, tchecks := serveWindow(s, window, &next, rec)
		smp.stop()
		o.count(tt)
		checks = append(checks, tchecks...)
		tracedRate := float64(tt.attempted) / telapsed.Seconds()
		o.metrics["trace.overhead_frac"] = ratio(untracedRate-tracedRate, untracedRate)
		httpLayers(o, tt, smp, rec.snapshot())
		o.metrics["fcache.hit_frac"] = ratio(float64(tt.hits), float64(tt.generates))
		o.metrics["fcache.evictions_per_kop"] = 1000 * ratio(smp.delta("fusiond_fcache_evictions"), float64(tt.attempted))
		if err := replayServe(cfg, o, s, rec, execs); err != nil {
			return nil, err
		}
		traceDump(cfg, o, rec.snapshot())
	}
	runChecks(o, checks)
	return o, nil
}

// runChecks runs deferred correctness checks on every CPU.
func runChecks(o *outcome, checks []func() error) {
	var mu sync.Mutex
	fanOut(runtime.NumCPU(), checks, time.Hour, func(check func() error) error {
		if err := check(); err != nil {
			mu.Lock()
			o.check(err)
			o.failed++
			mu.Unlock()
		}
		return nil
	})
}

// httpLayers sets the server and admission metrics of a traced HTTP
// window from its client tallies, its sampler, and its spans.
func httpLayers(o *outcome, t *tally, smp *sampler, spans []span) {
	o.metrics["server.generate_hit_ms"] = median(t.byClass["generate_hit"])
	o.metrics["server.generate_miss_ms"] = median(t.byClass["generate_miss"])
	o.metrics["server.cluster_ms"] = median(t.byClass["cluster"])
	frac, joined := smp.handlerFrac(spans)
	o.metrics["server.handler_frac"] = frac
	o.metrics["admission.rejected_frac"] = ratio(float64(t.rejected), float64(t.attempted))
	o.metrics["admission.queued_mean"] = mean(smp.queued)
	o.metrics["store.fsyncs_per_op"] = ratio(smp.delta("fusiond_store_fsyncs_total"), float64(t.attempted))
	o.metrics["store.records_per_flush"] = ratio(smp.delta("fusiond_store_wal_records_total"), smp.delta("fusiond_store_wal_flushes_total"))
	o.metrics["store.flush_p99_ms"] = 1000 * smp.histQuantile("fusiond_store_flush_seconds", 0.99)
	o.notef("trace: joined %d of %d client spans to /debug/log records; %d health samples", joined, t.attempted, len(smp.queued))
	for _, err := range smp.errs {
		o.notef("sampler error: %v", err)
	}
}
