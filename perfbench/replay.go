package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fusion "repro"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// The layer replay re-executes a traced window's operations through the
// public functions of each layer, after the load has stopped, with spans
// around every call. Each replay span names the request it re-executes.
// It is bounded in time so a traced run stays within its budget.

func replayBudget(cfg *config) time.Duration { return max(2*time.Second, cfg.dur/8) }

// stagedStore is a sim.Store with the staged append path group commit
// uses: a store.Dir, or a store.Tee over one.
type stagedStore interface {
	sim.Store
	StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error)
}

// timingStore wraps a durable store with spans around each sim.Store
// call. The staged append path is kept, so group commit still coalesces
// concurrent updates. Store spans are children of the sim.update span
// holding the cluster's handle lock when they start.
type timingStore struct {
	stagedStore
	rec       *recorder
	mu        sync.Mutex
	holder    map[string]int64
	snapshots atomic.Int64
}

func (s *timingStore) hold(id string, span int64) {
	s.mu.Lock()
	s.holder[id] = span
	s.mu.Unlock()
}

func (s *timingStore) parent(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holder[id]
}

func (s *timingStore) StageEvents(id string, recs [][]byte, onCommit func()) (func() error, error) {
	p := s.parent(id)
	var wait func() error
	var err error
	s.rec.timed(p, "store.stage", "", func() { wait, err = s.stagedStore.StageEvents(id, recs, onCommit) })
	if err != nil {
		return nil, err
	}
	return func() error {
		var werr error
		s.rec.timed(p, "store.fsync_wait", "", func() { werr = wait() })
		return werr
	}, nil
}

func (s *timingStore) Snapshot(id string, snap []byte) error {
	var err error
	s.rec.timed(s.parent(id), "store.snapshot", "", func() { err = s.stagedStore.Snapshot(id, snap) })
	s.snapshots.Add(1)
	return err
}

func (s *timingStore) Put(id string, spec []byte) error {
	var err error
	s.rec.timed(0, "store.put", "", func() { err = s.stagedStore.Put(id, spec) })
	return err
}

func (s *timingStore) Remove(id string) error {
	var err error
	s.rec.timed(0, "store.remove", "", func() { err = s.stagedStore.Remove(id) })
	return err
}

// replayStore opens a group-commit store for a replay under the work
// directory, as a replication Tee whose feed a shipper applies to a
// follower; cleanup closes and removes both.
func replayStore(cfg *config, rec *recorder) (*timingStore, *shipper, func() error, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "replay-")
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := store.NewDirWith(filepath.Join(dir, "leader", "default"), store.DirOptions{GroupCommit: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	cleanup := func() error { return errors.Join(d.Close(), os.RemoveAll(dir)) }
	sh, err := startShipper(filepath.Join(dir, "follower"), rec)
	if err != nil {
		return nil, nil, nil, errors.Join(err, cleanup())
	}
	ts := &timingStore{stagedStore: store.NewTee("default", d, sh.log), rec: rec, holder: make(map[string]int64)}
	return ts, sh, func() error { return errors.Join(sh.close(), cleanup()) }, nil
}

// shipper applies a replication feed to an in-process follower as a
// leader's shipping loop does, without the HTTP hop: each wake-up takes
// the ops past the follower's position and applies them as one batch.
type shipper struct {
	log  *store.Log
	f    *repl.Follower
	rec  *recorder
	stop chan struct{}
	done chan struct{}
	lag  []float64 // feed head minus follower position, before each batch
	err  error
}

func startShipper(dir string, rec *recorder) (*shipper, error) {
	f, err := repl.OpenFollower(repl.FollowerOptions{DataDir: dir, Dir: store.DirOptions{GroupCommit: true}})
	if err != nil {
		return nil, err
	}
	const epoch = 1
	if _, err := f.FullSync(repl.FullState{Epoch: epoch}); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	s := &shipper{log: store.NewLog(epoch, 0), f: f, rec: rec, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s, nil
}

func (s *shipper) run() {
	defer close(s.done)
	wake := s.log.Subscribe()
	var applied uint64
	for {
		ops, ok := s.log.Since(applied, 0)
		if !ok {
			s.err = fmt.Errorf("replication feed trimmed past the follower at %d", applied)
			return
		}
		if len(ops) > 0 {
			head := s.log.Seq()
			s.lag = append(s.lag, float64(head-applied))
			var st repl.NodeStatus
			var err error
			s.rec.timed(0, "repl.apply", "", func() { st, err = s.f.Apply(repl.Batch{Epoch: s.log.Epoch(), LogSeq: head, Ops: ops}) })
			if err != nil || st.NeedSync {
				s.err = fmt.Errorf("follower apply at %d: need sync %v, %v", applied, st.NeedSync, err)
				return
			}
			applied = st.Applied
			continue
		}
		// Caught up: stop once asked to, otherwise wait for the feed.
		select {
		case <-s.stop:
			return
		case <-wake:
		}
	}
}

// drain waits until the follower has applied the whole feed, stops the
// shipper, and returns how long that took.
func (s *shipper) drain() (time.Duration, error) {
	start := time.Now()
	close(s.stop)
	<-s.done
	return time.Since(start), s.err
}

func (s *shipper) close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	return s.f.Close()
}

// update runs one handle Update inside a sim.update span.
func update(rec *recorder, ts *timingStore, h *sim.Handle, id string, parent int64, req string, f func(tx *sim.Tx, sp int64) error) error {
	sp := rec.id()
	start := rec.now()
	err := h.Update(func(tx *sim.Tx) error {
		ts.hold(id, sp)
		return f(tx, sp)
	})
	rec.record(sp, parent, "sim.update", req, start, rec.now())
	return err
}

// fanOut runs work on workers goroutines over items until the budget is
// spent, and returns how many items ran and the first error.
func fanOut[T any](workers int, items []T, budget time.Duration, work func(T) error) (int, error) {
	var idx, done atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	deadline := time.Now().Add(budget)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				if i >= len(items) {
					return
				}
				if err := work(items[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), first
}

func flatten(execs [][]executed) []executed {
	var out []executed
	for _, e := range execs {
		out = append(out, e...)
	}
	return out
}

// storeLayers sets the sim and store metrics from replay spans.
func storeLayers(o *outcome, st *spanStats, ts *timingStore, ops int) {
	o.metrics["sim.update_us"] = median(st.durs("sim.update"))
	o.metrics["sim.apply_us"] = median(st.selfDurs("sim.update"))
	o.metrics["sim.recover_us"] = st.medianUS("sim.recover")
	o.metrics["store.stage_us"] = st.medianUS("store.stage")
	o.metrics["store.fsync_wait_us"] = st.medianUS("store.fsync_wait")
	o.metrics["store.snapshot_us"] = st.medianUS("store.snapshot")
	o.metrics["store.snapshots_per_kop"] = 1000 * ratio(float64(ts.snapshots.Load()), float64(ops))
}

// replayServe replays a traced serve-mixed window: generate requests
// through decode, digest, cache lookup and encode (misses also through
// NewSystem and Generate, one at a time so allocation deltas are
// theirs), and churn through a store-backed sim registry.
func replayServe(cfg *config, o *outcome, s *serveSetup, rec *recorder, execs [][]executed) error {
	eng := fusion.DefaultEngine()
	fc := fcache.New(fcache.Options{})
	for _, e := range s.cat {
		ms := zooMachines(e.Zoo)
		resp, parts, err := libraryResponse(ms, e.F)
		if err != nil {
			return err
		}
		fc.Put(fcache.Entry{Key: core.RequestDigest(ms, e.F, core.GenerateOptions{}), N: resp.N, Parts: parts})
	}
	ts, sh, cleanup, err := replayStore(cfg, rec)
	if err != nil {
		return err
	}
	defer func() { o.check(cleanup()) }()
	reg := sim.NewStoredRegistry(0, ts, 0)

	var misses, rest []executed
	for _, e := range flatten(execs) {
		if s.stream.at(e.i).Kind == opMiss {
			misses = append(misses, e)
		} else {
			rest = append(rest, e)
		}
	}
	start := time.Now()
	budget := replayBudget(cfg)
	acc := &genAcc{rec: rec}
	nMiss := 0
	for _, e := range misses {
		if time.Since(start) > budget/2 {
			break
		}
		if err := replayGenerate(rec, fc, eng, acc, s, e); err != nil {
			return err
		}
		nMiss++
	}
	nRest, err := fanOut(runtime.NumCPU(), rest, budget-time.Since(start), func(e executed) error {
		op := s.stream.at(e.i)
		if op.Kind == opChurn {
			return replayChurn(rec, ts, reg, eng, op, e.req)
		}
		return replayGenerate(rec, fc, eng, nil, s, e)
	})
	if err != nil {
		return err
	}
	d, err := sh.drain()
	if err != nil {
		return err
	}
	o.metrics["repl.drain_ms"] = ms(d)
	o.metrics["repl.lag_ops_p99"] = quantile(sh.lag, 0.99)
	st := newSpanStats(rec.snapshot())
	acc.report(o, st)
	o.metrics["server.codec_us"] = median(codecUS(st))
	o.metrics["fcache.digest_us"] = st.medianUS("fcache.digest")
	o.metrics["fcache.lookup_us"] = st.medianUS("fcache.lookup")
	storeLayers(o, st, ts, nRest+nMiss)
	o.notef("replay: %d of %d misses, %d of %d other operations", nMiss, len(misses), nRest, len(rest))
	return nil
}

// codecUS sums each replayed request's decode and encode spans.
func codecUS(st *spanStats) []float64 {
	per := make(map[int64]float64)
	for _, sp := range st.spans {
		if sp.Name == "server.decode" || sp.Name == "server.encode" {
			per[sp.Parent] += us(sp.dur())
		}
	}
	out := make([]float64, 0, len(per))
	for _, v := range per {
		out = append(out, v)
	}
	return out
}

// replayGenerate re-executes one generate request the way the handler
// does: decode, resolve, digest, cache, encode.
func replayGenerate(rec *recorder, fc *fcache.Cache, eng *fusion.Engine, acc *genAcc, s *serveSetup, e executed) error {
	op := s.stream.at(e.i)
	body := s.cat[op.Catalog].body
	if op.Kind == opMiss {
		body = mustJSON(server.GenerateRequest{MachineSetRequest: server.MachineSetRequest{Spec: op.Spec}, F: op.F})
	}
	root := rec.id()
	start := rec.now()
	var req server.GenerateRequest
	var err error
	rec.timed(root, "server.decode", e.req, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	var ms []*fusion.Machine
	rec.timed(root, "server.resolve", e.req, func() {
		if req.Spec != "" {
			ms, err = fusion.ParseSpec(strings.NewReader(req.Spec))
		} else {
			ms = zooMachines(req.Zoo)
		}
	})
	if err != nil {
		return err
	}
	var key core.Digest
	rec.timed(root, "fcache.digest", e.req, func() { key = core.RequestDigest(ms, req.F, core.GenerateOptions{}) })
	var ent fcache.Entry
	if op.Kind == opMiss {
		sys, parts, gerr := acc.generate(eng, ms, req.F, e.req)
		if gerr != nil {
			return gerr
		}
		ent = fcache.Entry{Key: key, N: sys.N(), Parts: parts}
	} else {
		rec.timed(root, "fcache.lookup", e.req, func() {
			ent, _, err = fc.Do(key, func() (fcache.Entry, error) {
				return fcache.Entry{}, fmt.Errorf("catalog entry %s not cached", s.cat[op.Catalog].key())
			})
		})
		if err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	rec.timed(root, "server.encode", e.req, func() {
		resp := server.GenerateResponse{N: ent.N, F: req.F, Machines: make([]string, len(ms))}
		for i, m := range ms {
			resp.Machines[i] = m.Name()
		}
		for _, p := range ent.Parts {
			resp.Backups = append(resp.Backups, server.BackupResponse{States: p.NumBlocks(), Blocks: p.Blocks()})
		}
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	rec.record(root, 0, "replay.generate", e.req, start, rec.now())
	return err
}

// replayChurn re-executes one cluster lifecycle on the sim registry.
func replayChurn(rec *recorder, ts *timingStore, reg *sim.Registry, eng *fusion.Engine, op serveOp, req string) error {
	root := rec.id()
	start := rec.now()
	var c *fusion.Cluster
	var err error
	rec.timed(root, "sim.create", req, func() { c, err = eng.NewCluster(zooMachines(clusterSets[op.Set]), 1, op.Seed) })
	if err != nil {
		return err
	}
	var id string
	rec.timed(root, "sim.add", req, func() { id, err = reg.Add(c) })
	if err != nil {
		return err
	}
	h, _ := reg.Get(id)
	crashed := c.ServerNames()[op.Crash%len(c.ServerNames())]
	if err := update(rec, ts, h, id, root, req, func(tx *sim.Tx, _ int64) error {
		tx.ApplyAll(op.Events)
		return tx.Inject(trace.Fault{Server: crashed, Kind: trace.Crash})
	}); err != nil {
		return err
	}
	if err := update(rec, ts, h, id, root, req, func(tx *sim.Tx, sp int64) error {
		var rerr error
		rec.timed(sp, "sim.recover", req, func() { _, rerr = tx.Recover() })
		return rerr
	}); err != nil {
		return err
	}
	rec.timed(root, "sim.remove", req, func() { _, err = reg.Remove(id) })
	rec.record(root, 0, "replay.churn", req, start, rec.now())
	return err
}
