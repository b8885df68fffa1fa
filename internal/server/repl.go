package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	fusion "repro"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/store"
)

// This file is the serving side of the replication plane: the role state
// machine (leader / follower / promoting), the /repl/* endpoints, the
// follower's read-only request paths, and promotion — which turns a
// follower's warm mirrors into this daemon's serving tenants without
// rebuilding a single cluster.

// Role names for Options.Role and the role state machine. roleSingle is
// the non-replicated daemon — the historical behavior, zero replication
// overhead.
const (
	roleSingle    = "single"
	RoleLeader    = "leader"
	RoleFollower  = "follower"
	rolePromoting = "promoting"
)

// Staleness headers stamped on every follower-served read: the client
// asked a replica, and the reply says exactly how far behind it might
// be.
const (
	headerRole    = "X-Fusion-Role"
	headerApplied = "X-Fusion-Applied-Seq"
	headerLag     = "X-Fusion-Replication-Lag"
	headerAck     = "X-Fusion-Ack"
	headerAckWait = "X-Fusion-Ack-Timeout"
	headerLeader  = "Leader"
)

// currentRole reads the role under the replication lock.
func (s *Server) currentRole() string {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.role
}

// initReplication wires the replication plane during New, before any
// route can fire. Leader mode mints (and persists) a fresh epoch and
// opens the op feed — mintTenant then tees every store mutation into it.
// Follower mode opens the replica state instead of recovering tenants.
func (s *Server) initReplication() error {
	switch s.opts.Role {
	case "", roleSingle:
		if len(s.opts.Replicas) > 0 {
			return fmt.Errorf("server: replicas configured without Role=leader")
		}
		s.role = roleSingle
		return nil
	case RoleLeader:
		if s.opts.DataDir == "" {
			return fmt.Errorf("server: leader replication requires DataDir (epochs must be durable)")
		}
		epoch, err := repl.NextLeaderEpoch(s.opts.DataDir)
		if err != nil {
			return err
		}
		s.role = RoleLeader
		s.epoch = epoch
		s.log = store.NewLog(epoch, 0)
		return nil
	case RoleFollower:
		if s.opts.DataDir == "" {
			return fmt.Errorf("server: follower replication requires DataDir")
		}
		f, err := repl.OpenFollower(repl.FollowerOptions{
			DataDir:      s.opts.DataDir,
			LagThreshold: s.opts.LagThreshold,
			Dir:          s.dirOptions(),
		})
		if err != nil {
			return err
		}
		s.role = RoleFollower
		s.follower = f
		s.epoch = f.Status().Epoch
		return nil
	default:
		return fmt.Errorf("server: unknown role %q (use %q or %q)", s.opts.Role, RoleLeader, RoleFollower)
	}
}

// startShipping launches the leader's shippers; a separate step from
// initReplication so tenant recovery (which replays into the feed's
// backing stores) finishes first.
func (s *Server) startShipping() {
	if s.role != RoleLeader || len(s.opts.Replicas) == 0 {
		return
	}
	s.repLeader = repl.NewLeader(s.log, s.leaderOpts())
	s.repLeader.Start()
}

func (s *Server) leaderOpts() repl.LeaderOptions {
	return repl.LeaderOptions{
		Replicas: s.opts.Replicas,
		StateFn:  s.replState,
		Client:   s.opts.ReplClient,
		Rand:     s.opts.Rand,
	}
}

// replState builds a full state transfer. The feed Seq is captured
// BEFORE the tenant stores are read: any op committed while we read is
// either already visible in the snapshot or will be re-shipped with a
// seq above the capture point, where the follower's idempotent apply
// deduplicates it — so the transfer needs no write freeze.
func (s *Server) replState() (repl.FullState, error) {
	seq := s.log.Seq()
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	state := repl.FullState{Seq: seq}
	for _, t := range ts {
		if t.store == nil {
			continue
		}
		recs, err := t.store.Load()
		if err != nil {
			return repl.FullState{}, fmt.Errorf("server: reading tenant %q for sync: %w", t.name, err)
		}
		state.Tenants = append(state.Tenants, repl.TenantState{Name: t.name, Clusters: recs})
	}
	return state, nil
}

// routed dispatches a request by role: leaders (and non-replicated
// daemons) serve leaderH; followers serve followerH when the route has a
// read-only replica path, and otherwise shed with 503 plus a Leader
// location hint — mutations belong on the leader. During the brief
// promoting window everything v1 sheds with Retry-After; the tenant
// state is mid-handoff.
func (s *Server) routed(leaderH, followerH http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch s.currentRole() {
		case roleSingle, RoleLeader:
			leaderH(w, r)
		case rolePromoting:
			w.Header().Set("Retry-After", s.retryAfter())
			writeErr(w, http.StatusServiceUnavailable, "promotion in progress; retry shortly")
		case RoleFollower:
			if followerH != nil {
				followerH(w, r)
				return
			}
			if s.opts.LeaderURL != "" {
				w.Header().Set(headerLeader, s.opts.LeaderURL)
			}
			w.Header().Set("Retry-After", s.retryAfter())
			writeErr(w, http.StatusServiceUnavailable,
				"read-only follower: send mutations to the leader")
		}
	}
}

// followerRegistry resolves the tenant header against the follower's
// mirrors and stamps the staleness headers; a nil return means the
// response was already written.
func (s *Server) followerRegistry(w http.ResponseWriter, r *http.Request) *sim.Registry {
	name := r.Header.Get(s.opts.TenantHeader)
	if name == "" {
		name = "default"
	}
	if err := validTenantName(name); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return nil
	}
	st := s.follower.Status()
	w.Header().Set(headerRole, RoleFollower)
	w.Header().Set(headerApplied, strconv.FormatUint(st.Applied, 10))
	w.Header().Set(headerLag, strconv.FormatUint(st.Lag(), 10))
	reg, ok := s.follower.Registry(name)
	if !ok {
		msg := errUnknownTenant.Error()
		if id := r.PathValue("id"); id != "" {
			msg = fmt.Sprintf("no cluster %q: tenant has no replicated state", id)
		}
		writeErr(w, http.StatusNotFound, msg)
		return nil
	}
	return reg
}

// followerClusterGet serves GET /v1/clusters/{id} from the warm mirror.
// The body is byte-identical to the leader's answer for the same applied
// state — staleness is visible in headers only — which is what makes
// failover verifiable by diffing responses.
func (s *Server) followerClusterGet(w http.ResponseWriter, r *http.Request) {
	reg := s.followerRegistry(w, r)
	if reg == nil {
		return
	}
	id := r.PathValue("id")
	h, ok := reg.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no cluster %q on this replica", id))
		return
	}
	h.Do(func(c *sim.Cluster) {
		writeJSON(w, http.StatusOK, clusterResponse(id, c, nil))
	})
}

// --- /repl/* endpoints ----------------------------------------------------

// replStatus answers GET /repl/status for any role; the shipping client
// uses it to find a follower's resume point, and operators use it to see
// where a node stands.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	role, log, follower := s.role, s.log, s.follower
	s.replMu.Unlock()
	switch role {
	case RoleFollower:
		writeJSON(w, http.StatusOK, follower.Status())
	case rolePromoting:
		writeJSON(w, http.StatusOK, repl.NodeStatus{Role: rolePromoting})
	default:
		st := repl.NodeStatus{Role: role}
		if log != nil {
			st.Epoch = log.Epoch()
			st.Applied = log.Seq()
			st.LogSeq = log.Seq()
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// replBody decodes a replication request body under the replication
// size limit (batches and full syncs legitimately dwarf API bodies).
func (s *Server) replBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, replMaxBody)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed replication body: "+err.Error())
		return false
	}
	return true
}

// replMaxBody bounds /repl/apply and /repl/sync bodies: a full state
// transfer carries entire tenant stores.
const replMaxBody = 256 << 20

// handleReplApply ingests a leader batch (follower only).
func (s *Server) handleReplApply(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	role, follower := s.role, s.follower
	s.replMu.Unlock()
	if role != RoleFollower {
		writeJSON(w, http.StatusConflict, repl.NodeStatus{Role: role, Epoch: s.nodeEpoch()})
		return
	}
	var b repl.Batch
	if !s.replBody(w, r, &b) {
		return
	}
	st, err := follower.Apply(b)
	writeReplResult(w, st, err)
}

// handleReplSync ingests a full state transfer (follower only).
func (s *Server) handleReplSync(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	role, follower := s.role, s.follower
	s.replMu.Unlock()
	if role != RoleFollower {
		writeJSON(w, http.StatusConflict, repl.NodeStatus{Role: role, Epoch: s.nodeEpoch()})
		return
	}
	var state repl.FullState
	if !s.replBody(w, r, &state) {
		return
	}
	st, err := follower.FullSync(state)
	writeReplResult(w, st, err)
}

func writeReplResult(w http.ResponseWriter, st repl.NodeStatus, err error) {
	switch {
	case err == repl.ErrFenced:
		writeJSON(w, http.StatusConflict, st)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// handleReplFeed serves GET /repl/feed?after=N&max=M from the leader's
// op feed — a pull-based catch-up and debugging window. 410 Gone means
// the feed no longer retains after+1 and the caller must full-sync.
func (s *Server) handleReplFeed(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	log := s.log
	s.replMu.Unlock()
	if log == nil {
		writeErr(w, http.StatusNotFound, "no replication feed on this node")
		return
	}
	after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64) //nolint:errcheck // absent = 0
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))                  //nolint:errcheck // absent = 0
	if max <= 0 || max > 1024 {
		max = 1024
	}
	ops, ok := log.Since(after, max)
	if !ok {
		writeErr(w, http.StatusGone, fmt.Sprintf("feed trimmed past seq %d; full sync required", after))
		return
	}
	writeJSON(w, http.StatusOK, repl.Batch{Epoch: log.Epoch(), LogSeq: log.Seq(), Ops: ops})
}

// handleReplPromote turns this follower into a leader (POST
// /repl/promote, also reachable via fusiond -promote). Idempotent-ish:
// promoting an existing leader answers 409 with its status rather than
// minting another epoch.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	epoch, err := s.promote()
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, repl.NodeStatus{Role: RoleLeader, Epoch: epoch, Applied: s.log.Seq(), LogSeq: s.log.Seq()})
}

func (s *Server) nodeEpoch() uint64 {
	if s.log != nil {
		return s.log.Epoch()
	}
	return s.epoch
}

// promote executes the failover handoff. The follower fences itself and
// surrenders its tenants (stores, warm registries, WAL anchors); each
// becomes a serving tenant with a fresh engine and a store re-teed into
// a brand-new op feed under the bumped epoch. Cost is O(tenants): no
// spec regeneration, no snapshot restore, no WAL replay — the mirrors
// were kept warm for exactly this moment.
func (s *Server) promote() (uint64, error) {
	s.replMu.Lock()
	if s.role != RoleFollower {
		s.replMu.Unlock()
		return 0, fmt.Errorf("cannot promote: node is %s, not a follower", s.role)
	}
	follower := s.follower
	s.role = rolePromoting
	s.replMu.Unlock()

	epoch, tens, err := follower.Promote()
	if err != nil {
		s.replMu.Lock()
		s.role = RoleFollower
		s.replMu.Unlock()
		return 0, err
	}
	log := store.NewLog(epoch, 0)
	adopted := make(map[string]*tenant, len(tens))
	for _, pt := range tens {
		tee := store.NewTee(pt.Name, pt.Store, log)
		tee.SeedAnchors(pt.WalLens)
		pt.Reg.SetCapacity(s.opts.MaxClusters)
		pt.Reg.Bind(tee, s.opts.CompactEvery, pt.WalLens)
		adopted[pt.Name] = &tenant{
			name:     pt.Name,
			engine:   s.mintEngine(),
			clusters: pt.Reg,
			store:    pt.Store,
		}
	}
	s.mu.Lock()
	s.tenants = adopted
	s.mu.Unlock()

	s.replMu.Lock()
	s.log = log
	s.epoch = epoch
	s.role = RoleLeader
	if len(s.opts.Replicas) > 0 {
		s.repLeader = repl.NewLeader(log, s.leaderOpts())
		s.repLeader.Start()
	}
	s.replMu.Unlock()
	return epoch, nil
}

// mintEngine builds a tenant engine with the daemon's admission limits
// (shared with mintTenant and promotion).
func (s *Server) mintEngine() *fusion.Engine {
	return fusion.NewEngine(fusion.EngineOptions{
		Workers:      s.opts.Workers,
		MaxInFlight:  s.opts.MaxInFlight,
		QueueDepth:   s.opts.QueueDepth,
		QueueTimeout: s.opts.QueueTimeout,
	})
}

// --- readiness ------------------------------------------------------------

// ReadyResponse is the GET /readyz body (see api.go for the rest of the
// wire types; this one lives with the role logic that fills it).
type ReadyResponse struct {
	Ready   bool   `json:"ready"`
	Role    string `json:"role"`
	Reason  string `json:"reason,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Applied uint64 `json:"applied"`
	LogSeq  uint64 `json:"logSeq"`
	Lag     uint64 `json:"lag"`
}

// handleReadyz is readiness, distinct from /healthz liveness: a node
// answers ready only when it can serve its role's traffic — a leader
// past boot recovery and not draining, a follower in contact with its
// leader and within the lag threshold. Load balancers route on this; a
// live-but-lagging follower keeps answering /healthz 200 while /readyz
// says 503.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	role, log, follower := s.role, s.log, s.follower
	s.replMu.Unlock()
	resp := ReadyResponse{Role: role}
	switch role {
	case RoleFollower:
		ok, reason := follower.Ready()
		st := follower.Status()
		resp.Ready, resp.Reason = ok, reason
		resp.Epoch, resp.Applied, resp.LogSeq, resp.Lag = st.Epoch, st.Applied, st.LogSeq, st.Lag()
	case rolePromoting:
		resp.Reason = "promotion in progress"
	default:
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			resp.Reason = "draining"
		} else {
			resp.Ready = true
		}
		if log != nil {
			resp.Epoch = log.Epoch()
			resp.Applied = log.Seq()
			resp.LogSeq = log.Seq()
		}
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// --- write acknowledgement ------------------------------------------------

// ackWait implements the leader's write-acknowledgement mode. Under
// leader-ack (the default) a mutation returns once it is durable
// locally; under quorum-ack the response additionally waits — up to the
// configured or per-request timeout — until a majority of the
// replication group (this leader plus its followers) holds the ops the
// request produced. The response always says which guarantee it carries
// in X-Fusion-Ack; a quorum that timed out degrades the header to
// "leader" instead of failing the request, because the mutation IS
// durable here and already queued for every follower.
func (s *Server) ackWait(w http.ResponseWriter, r *http.Request, pre uint64) {
	s.replMu.Lock()
	log, leader := s.log, s.repLeader
	s.replMu.Unlock()
	if log == nil || leader == nil {
		return
	}
	post := log.Seq()
	if post == pre {
		return // request produced no replicated ops
	}
	if !s.opts.QuorumAck {
		w.Header().Set(headerAck, "leader")
		return
	}
	timeout := s.opts.AckTimeout
	if hdr := r.Header.Get(headerAckWait); hdr != "" {
		if d, err := time.ParseDuration(hdr); err == nil && d > 0 && d < timeout {
			timeout = d
		}
	}
	need := (1 + len(s.opts.Replicas)) / 2 // follower acks for a group majority incl. this leader
	if leader.WaitAcked(post, need, timeout) {
		w.Header().Set(headerAck, "quorum")
	} else {
		w.Header().Set(headerAck, "leader")
	}
}
