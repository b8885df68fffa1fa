package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	fusion "repro"
	"repro/internal/core"
	"repro/internal/dfsm"
	"repro/internal/fcache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// headerCache reports how a generate request was satisfied: "hit",
// "miss", "coalesced", or "bypass" (cache disabled or noCache set).
const headerCache = "X-Fusion-Cache"

// resolveMachines turns a request's machine-set description (zoo names or
// an inline .fsm spec, exactly one of the two) into machines.
func resolveMachines(req MachineSetRequest) ([]*fusion.Machine, error) {
	switch {
	case len(req.Zoo) > 0 && req.Spec != "":
		return nil, fmt.Errorf("give either zoo names or an inline spec, not both")
	case len(req.Zoo) > 0:
		ms := make([]*fusion.Machine, len(req.Zoo))
		for i, name := range req.Zoo {
			m, err := fusion.ZooMachine(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			ms[i] = m
		}
		return ms, nil
	case req.Spec != "":
		ms, err := fusion.ParseSpec(strings.NewReader(req.Spec))
		if err != nil {
			return nil, err
		}
		if len(ms) == 0 {
			return nil, fmt.Errorf("spec defines no machines")
		}
		return ms, nil
	default:
		return nil, fmt.Errorf("no machines: set \"zoo\" or \"spec\"")
	}
}

// httpError carries a specific HTTP status out of the generate compute
// callback, so cache-coalesced waiters report the leader's failure with
// the right code instead of a generic 500.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// handleGenerate runs Algorithm 2 for the requested machine set and fault
// budget on the tenant's engine, routed through the shared fusion cache.
func (s *Server) handleGenerate(t *tenant, w http.ResponseWriter, r *http.Request) {
	s.generate(t.engine, t, w, r)
}

// handleGenerateFollower serves POST /v1/generate on a follower: fusion
// generation is a pure function of the request, so a replica answers it
// locally — on its own engine with the daemon's admission limits, through
// the same shared cache — instead of shedding 503. The response body is
// byte-identical to the leader's for the same request; the staleness
// headers only mark which node answered.
func (s *Server) handleGenerateFollower(w http.ResponseWriter, r *http.Request) {
	st := s.follower.Status()
	w.Header().Set(headerRole, RoleFollower)
	w.Header().Set(headerApplied, strconv.FormatUint(st.Applied, 10))
	w.Header().Set(headerLag, strconv.FormatUint(st.Lag(), 10))
	s.generate(s.genFollower, nil, w, r)
}

// generate answers one generate request on eng. fusiond is the one place
// the fusion cache is consulted: with the cache enabled and the request
// not opting out, the result is looked up by content address — a
// canonical digest of the machine tables, f, and the semantics-affecting
// options — and concurrent identical requests coalesce onto one
// Algorithm 2 run. Unlike the cluster routes it is not wrapped in
// admitted(): the admission slot is taken inside the cache's singleflight
// compute, so N concurrent identical requests hold one slot (the flight
// leader's), not N. t attributes the hit/miss to a tenant (nil on
// followers, which run no tenant state).
func (s *Server) generate(eng *fusion.Engine, t *tenant, w http.ResponseWriter, r *http.Request) {
	if !s.readBody(w, r) {
		return
	}
	var req GenerateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.F < 0 {
		writeErr(w, http.StatusBadRequest, "f must be >= 0")
		return
	}
	ms, err := resolveMachines(req.MachineSetRequest)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	compute := func() (fcache.Entry, error) {
		if err := eng.Acquire(r.Context()); err != nil {
			return fcache.Entry{}, err
		}
		defer eng.Release()
		sys, err := fusion.NewSystem(ms)
		if err != nil {
			return fcache.Entry{}, &httpError{http.StatusBadRequest, err.Error()}
		}
		parts, err := eng.Generate(sys, req.F)
		if err != nil {
			return fcache.Entry{}, &httpError{http.StatusUnprocessableEntity, err.Error()}
		}
		return fcache.Entry{N: sys.N(), Parts: parts}, nil
	}

	var ent fcache.Entry
	outcome := "bypass"
	if s.fcache != nil && !req.NoCache {
		// The digest must match what the pre-warmer computes for the same
		// machines and f, so a daemon cache warmed at boot and one warmed
		// by requests agree: default GenerateOptions, Pool excluded by
		// construction.
		key := core.RequestDigest(ms, req.F, core.GenerateOptions{})
		var out fcache.Outcome
		ent, out, err = s.fcache.Do(key, compute)
		outcome = out.String()
	} else {
		ent, err = compute()
	}
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeErr(w, he.code, he.msg)
		} else {
			s.writeAdmissionErr(w, err)
		}
		return
	}
	w.Header().Set(headerCache, outcome)
	if t != nil {
		if outcome == "hit" || outcome == "coalesced" {
			t.cacheHits.Add(1)
		} else {
			t.cacheMisses.Add(1)
		}
	}
	resp := GenerateResponse{N: ent.N, F: req.F, Machines: make([]string, len(ms))}
	for i, m := range ms {
		resp.Machines[i] = m.Name()
	}
	resp.Backups = make([]BackupResponse, len(ent.Parts))
	for i, p := range ent.Parts {
		resp.Backups[i] = BackupResponse{States: p.NumBlocks(), Blocks: p.Blocks()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterCreate builds a simulated deployment on the tenant's
// engine and registers a handle for it.
func (s *Server) handleClusterCreate(t *tenant, w http.ResponseWriter, r *http.Request) {
	var req ClusterCreateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.F < 1 {
		writeErr(w, http.StatusBadRequest, "f must be >= 1")
		return
	}
	ms, err := resolveMachines(req.MachineSetRequest)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// Refuse before the expensive build: fusion generation for a cluster
	// that the registry would only reject is wasted pool time. Add below
	// stays the authoritative gate for the race between this check and
	// registration, via the typed sim.ErrRegistryFull.
	if t.clusters.Full() {
		w.Header().Set("Retry-After", s.retryAfter())
		writeErr(w, http.StatusTooManyRequests, "cluster capacity reached; delete one first")
		return
	}
	c, err := t.engine.NewCluster(ms, req.F, req.Seed)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	// Snapshot the response before Add makes the cluster reachable by
	// concurrent requests, then stamp the id in.
	resp := clusterResponse("", c, ms)
	resp.ID, err = t.clusters.Add(c)
	switch {
	case errors.Is(err, sim.ErrRegistryFull):
		// The advisory Full() pre-check raced a concurrent create; the
		// authoritative rejection gets the same capacity answer.
		w.Header().Set("Retry-After", s.retryAfter())
		writeErr(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		// Store-backed registries can also fail to persist the spec; the
		// cluster was not registered.
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func clusterResponse(id string, c *sim.Cluster, ms []*fusion.Machine) ClusterResponse {
	if ms == nil {
		ms = c.System().Machines
	}
	names := c.ServerNames()
	return ClusterResponse{
		ID:       id,
		Servers:  names,
		Backups:  len(names) - len(ms),
		Top:      c.System().N(),
		Alphabet: dfsm.UnionAlphabet(ms),
		Step:     c.Step(),
		States:   c.States(),
	}
}

// cluster resolves the {id} path value against the tenant's registry,
// writing the 404 itself when the handle is unknown.
func (t *tenant) cluster(w http.ResponseWriter, r *http.Request) (*sim.Handle, string, bool) {
	id := r.PathValue("id")
	h, ok := t.clusters.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no cluster %q for tenant %q", id, t.name))
		return nil, id, false
	}
	return h, id, true
}

func (s *Server) handleClusterGet(t *tenant, w http.ResponseWriter, r *http.Request) {
	h, id, ok := t.cluster(w, r)
	if !ok {
		return
	}
	h.Do(func(c *sim.Cluster) {
		writeJSON(w, http.StatusOK, clusterResponse(id, c, nil))
	})
}

func (s *Server) handleClusterDelete(t *tenant, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := t.clusters.Remove(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no cluster %q for tenant %q", id, t.name))
		return
	}
	if err != nil {
		// Dropped from the live table but the durable record survived; a
		// restart would resurrect it, so the client must know.
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterEvents broadcasts an event window, then injects faults at
// the cut — the paper's execution model, over HTTP. The whole
// apply-inject-respond sequence runs under the cluster handle's lock, so
// concurrent requests to the same cluster cannot interleave: each
// request's faults strike at its own cut and its response describes its
// own mutations.
func (s *Server) handleClusterEvents(t *tenant, w http.ResponseWriter, r *http.Request) {
	h, id, ok := t.cluster(w, r)
	if !ok {
		return
	}
	var req EventsRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Random != nil && (req.Random.Count < 0 || req.Random.Count > 1_000_000) {
		writeErr(w, http.StatusBadRequest, "random.count must be in [0, 1000000]")
		return
	}
	faults := make([]trace.Fault, 0, len(req.Faults))
	for _, fr := range req.Faults {
		var kind trace.FaultKind
		switch strings.ToLower(fr.Kind) {
		case "crash":
			kind = trace.Crash
		case "byzantine":
			kind = trace.Byzantine
		default:
			writeErr(w, http.StatusBadRequest,
				fmt.Sprintf("unknown fault kind %q: use \"crash\" or \"byzantine\"", fr.Kind))
			return
		}
		faults = append(faults, trace.Fault{Server: fr.Server, Kind: kind})
	}

	// The sequence runs under the handle's Update so it is serialized
	// against concurrent requests AND journaled: on a store-backed
	// registry the response below is written only after the mutations are
	// durable, so an acknowledged window is never lost to a crash.
	// Handler-level rejections are carried out of the callback and
	// written after, because a journal failure must override a buffered
	// success response.
	var resp EventsResponse
	var failCode int
	var failMsg string
	err := h.Update(func(tx *sim.Tx) error {
		c := tx.Cluster()
		// Validate every fault target before any mutation: a typo'd
		// server name must not leave the cluster half-advanced (a client
		// treating 400 as "nothing happened" would double-apply its
		// window on retry). With names and kinds pre-checked, injection
		// below cannot fail.
		known := make(map[string]bool)
		for _, name := range c.ServerNames() {
			known[name] = true
		}
		for _, f := range faults {
			if !known[f.Server] {
				failCode, failMsg = http.StatusBadRequest, fmt.Sprintf("sim: no server %q", f.Server)
				return nil
			}
		}
		events := req.Events
		if req.Random != nil {
			gen := trace.NewGenerator(req.Random.Seed, c.System().Machines)
			events = append(append([]string(nil), events...), gen.Take(req.Random.Count)...)
		}
		tx.ApplyAll(events)
		for i, f := range faults {
			if err := tx.Inject(f); err != nil {
				failCode, failMsg = http.StatusInternalServerError,
					fmt.Sprintf("fault %d of %d: %s", i+1, len(faults), err)
				return nil
			}
		}
		resp = EventsResponse{
			ID:       id,
			Applied:  len(events),
			Step:     c.Step(),
			Servers:  c.ServerNames(),
			States:   c.States(),
			Injected: req.Faults,
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "persisting cluster mutation: "+err.Error())
		return
	}
	if failCode != 0 {
		writeErr(w, failCode, failMsg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterRecover runs one recovery round (Algorithm 3) and restores
// every server, with the vote and the response snapshot under the same
// handle lock.
func (s *Server) handleClusterRecover(t *tenant, w http.ResponseWriter, r *http.Request) {
	h, id, ok := t.cluster(w, r)
	if !ok {
		return
	}
	var resp RecoverResponse
	var failMsg string
	err := h.Update(func(tx *sim.Tx) error {
		c := tx.Cluster()
		out, err := tx.Recover()
		if err != nil {
			// The faults exceeded what the fusion tolerates: the vote is
			// ambiguous. That is a state of the experiment, not of the
			// server; no server state changes, but the failed round is
			// journaled so its counter survives a restart.
			failMsg = err.Error()
			return nil
		}
		restored := out.Restored
		if restored == nil {
			restored = []string{}
		}
		liars := out.Liars
		if liars == nil {
			liars = []string{}
		}
		resp = RecoverResponse{
			ID:         id,
			TopState:   out.TopState,
			Restored:   restored,
			Liars:      liars,
			Consistent: len(c.Verify()) == 0,
			Servers:    c.ServerNames(),
			States:     c.States(),
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "persisting cluster mutation: "+err.Error())
		return
	}
	if failMsg != "" {
		writeErr(w, http.StatusUnprocessableEntity, failMsg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
