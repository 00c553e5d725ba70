// Package server exposes the IReS scheduler pipeline as a long-running
// federation query service — the serving layer of the reproduction's
// "heavy traffic" story. It hosts a registry of named federations (each
// with its own scheduler and histories), bounds each federation's
// in-flight submissions (past Config.QueueDepth a request gets 429),
// and batches concurrent submissions of the same query so they share
// one plan sweep through the snapshot/cache estimation pipeline: the
// expensive, policy-independent half of a round is paid once per batch,
// while selection and execution stay per-request.
//
// With Config.Store.Dir set, every tenant's histories are durable: one
// histstore root per federation, observations written ahead to a WAL as
// they are recorded, the WAL fsynced on a timer, on demand and at drain,
// and schedulers warm-started from the recovered histories on boot — a
// restarted midasd estimates from exactly the history it had when it
// stopped.
//
// With Config.Cluster set, the server is one member of a consistent-
// hash sharded cluster (see cluster.go): it owns a subset of the hosted
// federations, answers requests for the rest with 307 + the owner's
// address, and can hand live tenants off to peers (or take over a dead
// peer's tenants from their replicated WALs) without losing an acked
// write.
//
// Endpoints:
//
//	POST /v1/queries          submit a query + policy, get the decision
//	GET  /v1/history/{query}  recorded executions of one query (paged)
//	GET  /v1/stats            counters and latency percentiles
//	POST /v1/admin/checkpoint fsync every history's WAL now
//	GET  /healthz             liveness (503 while draining)
//	GET  /readyz              readiness (503 while draining or mid-handoff)
//	GET  /metrics             Prometheus text exposition
//
// Cluster mode only:
//
//	GET  /v1/cluster          epoch-versioned routing table
//	GET  /v1/cluster/health   peer probe target: epoch, replication health
//	POST /v1/admin/handoff    live-migrate a federation to a peer
//	POST /v1/admin/takeover   promote this standby after an owner death
//	POST /v1/admin/route      table gossip (server-to-server)
//	POST /v1/admin/replicate/stream
//	                          every shard byte between nodes — WAL
//	                          shipping, standby syncs, handoffs —
//	                          upgraded to a stream (server-to-server,
//	                          see replstream.go)
//	POST /v1/admin/handoff/activate
//	                          serve a federation whose shards a handoff
//	                          shipped here (server-to-server)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// defaultHistoryLimit caps GET /v1/history responses when the client
// does not pass ?limit= — large enough for any dashboard, small enough
// that a long-lived tenant's full log cannot be serialized by accident.
// Responses that drop observations set "truncated" and are counted in
// /v1/stats.
const defaultHistoryLimit = 500

// historyRetain bounds every hosted history, in memory, in its WAL and
// on its standby, to its newest historyRetain..2·historyRetain
// observations (core.RetainedBase). An estimate reads at most the MMax
// newest and a default history page is defaultHistoryLimit, so nothing
// the server computes or returns by default can tell; what stops growing
// with uptime is a tenant's heap, boot, handoff and standby sync.
const historyRetain = 1024

// StoreConfig declares where (and how) tenant histories persist.
type StoreConfig struct {
	// Dir is the root data directory; each federation gets its own
	// subdirectory of per-query WAL shards. Empty disables
	// persistence entirely — histories live and die in memory, the
	// pre-durability behavior.
	Dir string
	// CheckpointInterval fsyncs every tenant's WALs on this period: the
	// bound on what a machine crash can lose without Fsync (with it, the
	// tick finds nothing left to sync). 0 disables the timer; checkpoints
	// still run at drain and via POST /v1/admin/checkpoint.
	CheckpointInterval time.Duration
	// Fsync is histstore Options.Fsync: no response leaves the server
	// before an fsync covering its recorded execution returns — durable
	// against machine crashes, the fsync shared by the requests waiting.
	Fsync bool
	// GroupCommit is a synonym of Fsync, kept only because the frozen
	// bench/ sets it; ROADMAP 1(a) drops it with the next benchmark PR.
	GroupCommit bool
}

// Config assembles a Server.
type Config struct {
	// Federations declares the hosted tenants; at least one.
	Federations []FederationSpec
	// QueueDepth bounds the submissions one federation may have in
	// flight; excess submissions to that tenant are rejected with 429
	// (default 1024). The bound is per tenant so one hot federation
	// saturating its queue cannot head-of-line-block the others.
	QueueDepth int
	// RequestTimeout caps one submission end to end — the plan sweep it
	// leads and any wait for an ownership move included — unless the
	// request carries its own shorter timeout_ms (default 30s; negative
	// disables the per-request deadline entirely). Expiry → 504, or 503
	// while the move still holds the request.
	RequestTimeout time.Duration
	// Store makes tenant histories durable; the zero value keeps them
	// in memory.
	Store StoreConfig
	// Cluster makes this server one member of a consistent-hash
	// sharded midasd cluster (see cluster.go); nil — the default —
	// serves every federation standalone.
	Cluster *ClusterConfig
	// Metrics is the registry every layer under this server publishes
	// into — request latency histograms, sweep and model-cache series,
	// histstore WAL health — and the registry GET /metrics renders. Nil
	// creates a fresh registry (so /metrics always works); pass one to
	// embed the server's metrics in a larger process. A registry backs
	// at most one Server: instruments are registered per tenant name,
	// and registering the same tenant twice panics.
	Metrics *metrics.Registry
	// Logger receives the server's structured logs (request-scoped
	// completions at Debug, lifecycle at Info, failures at Warn). Nil
	// discards everything, the zero-cost default for embedders;
	// cmd/midasd wires a JSON handler.
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	// A negative RequestTimeout is meaningful: no per-request deadline,
	// for embedders that bound requests elsewhere.
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Server hosts the federations and implements the HTTP API.
type Server struct {
	cfg     Config
	tenants map[string]*tenant
	sole    string // tenant name when exactly one is hosted

	// reqSeconds is the per-(federation, query) request latency
	// histogram (the hot path observes through the tenants' pre-bound
	// children, not With); log is the structured logger (never nil
	// after setDefaults).
	reqSeconds *metrics.HistogramVec
	log        *slog.Logger

	start time.Time

	// draining is set once, by Drain. A submission increments its
	// tenant's in-flight counter and then loads this flag; Drain stores
	// the flag and then reads the counters — so every request either
	// sees the drain (503) or is seen by it (waited for).
	draining atomic.Bool

	// lifeCtx ends the background work — every goroutine spawn starts —
	// and every peer call it makes; Drain cancels it and then waits on
	// lifeWG. lifeMu orders spawn's Add against Drain's flag.
	lifeCtx  context.Context
	lifeStop context.CancelFunc
	lifeMu   sync.Mutex
	lifeWG   sync.WaitGroup

	// cluster is this server's cluster membership; nil in standalone
	// mode, which keeps the submit hot path to a single pointer check.
	cluster *clusterState
}

// New builds the tenants declared in cfg (topology, calibration,
// bootstrap — this is the slow part) and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Federations) == 0 {
		return nil, errors.New("server: no federations configured")
	}
	// Defaults are resolved before tenant builds so the metrics
	// registry exists for the scheduler and store instruments to land
	// in.
	cfg.setDefaults()
	// Duplicate names must be rejected before any tenant is built:
	// building the second twin would re-register its per-federation
	// metric series and panic instead of returning this error.
	seen := make(map[string]bool, len(cfg.Federations))
	for i := range cfg.Federations {
		name := cfg.Federations[i].Name
		if name == "" {
			continue // buildTenant reports the nameless-spec error
		}
		if seen[name] {
			return nil, fmt.Errorf("server: duplicate federation name %q", name)
		}
		seen[name] = true
	}
	// The cluster state recovers the persisted routing table (if any)
	// here, before tenants are built — which tenants activate below must
	// reflect the placements this node last committed, not the ring's
	// defaults.
	cs, err := newClusterState(cfg.Cluster, cfg.Store.Dir)
	if err != nil {
		return nil, err
	}
	tenants := make(map[string]*tenant, len(cfg.Federations))
	// A failed build releases the WAL handles of every tenant already
	// built, so a caller retrying New does not leak file descriptors.
	closeBuilt := func() {
		for _, t := range tenants {
			_ = t.closeStore()
		}
	}
	calibs := make(calibrations)
	for i := range cfg.Federations {
		var mirror histstore.Mirror
		if cs != nil {
			mirror = cs.newStream(cfg.Federations[i].Name)
		}
		t, err := buildTenant(cfg.Federations[i], cfg.Store, cfg.Metrics, mirror, calibs)
		if err != nil {
			closeBuilt()
			return nil, err
		}
		tenants[t.name] = t
		// In cluster mode every node builds every tenant, but opens only
		// the ones it owns, through the activation a handoff or takeover
		// runs for the others later.
		if cs == nil || cs.owns(t.name) {
			if err := activateTenant(t, nil); err != nil {
				closeBuilt()
				return nil, fmt.Errorf("server: federation %q: %w", t.name, err)
			}
			t.finish(cluster.Active)
		}
	}
	return newServer(cfg, tenants, cs), nil
}

// NewWithSchedulers wires pre-built schedulers directly into a Server —
// the assembly hook tests and embedders use to skip calibration and
// bootstrap. Each scheduler serves the given queries under its map key.
func NewWithSchedulers(cfg Config, scheds map[string]QueryScheduler, queries []tpch.QueryID) (*Server, error) {
	if len(scheds) == 0 {
		return nil, errors.New("server: no schedulers")
	}
	cs, err := newClusterState(cfg.Cluster, cfg.Store.Dir)
	if err != nil {
		return nil, err
	}
	tenants := make(map[string]*tenant, len(scheds))
	for name, sched := range scheds {
		tenants[name] = newTenant(name, sched, queries, cs != nil && !cs.owns(name))
	}
	return newServer(cfg, tenants, cs), nil
}

func newServer(cfg Config, tenants map[string]*tenant, cs *clusterState) *Server {
	cfg.setDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		tenants:  tenants,
		log:      cfg.Logger,
		start:    time.Now(),
		lifeCtx:  ctx,
		lifeStop: stop,
	}
	s.cluster = cs
	if len(tenants) == 1 {
		for name := range tenants {
			s.sole = name
		}
	}
	s.registerMetrics()
	if cs != nil {
		cs.srv = s
		for _, t := range tenants {
			t.fenced = cs.table.Load().Epoch()
		}
		if cs.cfg.AutoFailover && len(cs.cfg.Peers) > 1 {
			// The detector must exist before registerClusterMetrics so
			// the peer-health gauges can read it.
			s.initDetector()
		}
		s.registerClusterMetrics()
		if len(cs.cfg.Peers) > 1 {
			s.spawn(s.controlLoop)
		}
		if cs.detector != nil {
			s.spawn(func() { cs.detector.Run(s.lifeCtx) })
		}
	}
	if cfg.Store.CheckpointInterval > 0 {
		s.spawn(s.checkpointLoop)
	}
	return s
}

// spawn runs f in a goroutine the server's lifetime owns: Drain cancels
// lifeCtx and returns only after f has. It refuses (false, f not run)
// once Drain has begun.
func (s *Server) spawn(f func()) bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.lifeWG.Add(1)
	go func() {
		defer s.lifeWG.Done()
		f()
	}()
	return true
}

// stopBackground ends the lifetime: every spawned goroutine — the
// control loop and the steps it started, the failure detector, accepted
// replication streams, the checkpoint loop — has returned when this
// does.
func (s *Server) stopBackground() {
	s.lifeStop()
	s.lifeWG.Wait()
}

// Metrics returns the registry backing GET /metrics — the hook for
// embedders that want to add their own instruments or scrape without
// HTTP.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// registerMetrics wires the serving-layer instruments: admission and
// drain gauges, the per-(federation, query) latency histogram, and one
// set of counter collectors per tenant reading the same atomics
// /v1/stats reports (so the two surfaces can never disagree).
func (s *Server) registerMetrics() {
	reg := s.cfg.Metrics
	for _, t := range s.tenants {
		t := t
		reg.GaugeFunc("midas_admission_queue_depth",
			"Submissions to this federation currently in flight (redirected ones included, ones an ownership move holds not).",
			func() float64 { return float64(t.inflight.Load()) },
			"federation", t.name)
		reg.GaugeFunc("midas_admission_queue_capacity",
			"Per-federation in-flight limit (ServerConfig.QueueDepth); beyond it submissions get 429.",
			func() float64 { return float64(s.cfg.QueueDepth) },
			"federation", t.name)
	}
	reg.GaugeFunc("midas_inflight_requests",
		"Submissions in flight across every federation; a drain waits for this to reach zero.",
		func() float64 { return float64(s.inflight()) })
	reg.GaugeFunc("midas_draining",
		"1 while the server drains (healthz 503, submissions rejected), else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("midas_uptime_seconds",
		"Seconds since the server was assembled.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reqSeconds = reg.HistogramVec("midas_request_duration_seconds",
		"Server-side wall time of one completed scheduling round.",
		metrics.DefBuckets, "federation", "query")
	for _, t := range s.tenants {
		t.registerMetrics(reg)
		// Pre-bind each (federation, query) latency child: HistogramVec
		// label resolution allocates, so the hot path reads this map
		// (immutable once serving starts) instead of calling With.
		t.latency = make(map[tpch.QueryID]*metrics.Histogram, len(t.queries))
		for _, q := range t.queries {
			t.latency[q] = s.reqSeconds.With(t.name, q.String())
		}
	}
}

// checkpointLoop checkpoints every tenant on the configured period
// until the server's lifetime context ends.
func (s *Server) checkpointLoop() {
	tick := time.NewTicker(s.cfg.Store.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-tick.C:
			s.checkpointAll()
		}
	}
}

// checkpointAll checkpoints every tenant, returning the first error
// (every tenant is attempted regardless).
func (s *Server) checkpointAll() error {
	var first error
	for _, t := range s.tenants {
		if err := t.checkpoint(); err != nil {
			s.log.Warn("checkpoint failed", "federation", t.name, "error", err.Error())
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", s.handleSubmit)
	mux.HandleFunc("GET /v1/history/{query}", s.handleHistory)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
		mux.HandleFunc("POST /v1/admin/handoff", s.handleHandoff)
		mux.HandleFunc("POST /v1/admin/handoff/activate", s.handleHandoffActivate)
		mux.HandleFunc("POST /v1/admin/route", s.handleRoute)
		mux.HandleFunc("POST "+replStreamPath, s.handleReplicateStream)
		mux.HandleFunc("POST /v1/admin/takeover", s.handleTakeover)
	}
	return mux
}

// inflight sums the tenants' in-flight submission counters.
func (s *Server) inflight() int64 {
	var n int64
	for _, t := range s.tenants {
		n += t.inflight.Load()
	}
	return n
}

// Drain stops admitting work and waits for in-flight requests to
// complete, or for ctx to expire. New submissions — and health checks —
// get 503 immediately, so load balancers rotate the instance out while
// accepted work finishes. The background work already under way (the
// control loop and its steps, the loops) ends before Drain returns, and
// no new work starts.
func (s *Server) Drain(ctx context.Context) error {
	s.lifeMu.Lock()
	s.draining.Store(true)
	s.lifeMu.Unlock()
	s.log.Info("drain started", "inflight", s.inflight())
	for _, t := range s.tenants {
		if err := t.drainInflight(ctx); err != nil {
			// Best-effort final checkpoint even on an aborted drain:
			// an fsync is safe under the appends the straggling
			// requests may still make. Stores stay open for those
			// stragglers; the process is exiting anyway.
			s.stopBackground()
			_ = s.checkpointAll()
			return fmt.Errorf("server: drain aborted, federation %q: %w", t.name, err)
		}
	}
	// Stop the background work — accepted replication streams, which
	// append to the stores, included — before the final checkpoint so a
	// late checkpoint tick, a demotion or a handoff commit cannot race
	// the store closes below.
	s.stopBackground()
	// The streams this node dialled close and dial no more.
	if s.cluster != nil {
		s.cluster.closeStreams()
	}
	// Final checkpoint: every acknowledged observation is fsynced
	// before the stores close.
	err := s.checkpointAll()
	for _, t := range s.tenants {
		if cerr := t.closeStore(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.log.Info("drain complete", "clean", err == nil)
	return err
}

// handleCheckpoint (POST /v1/admin/checkpoint) fsyncs every history's
// WAL on demand — the hook operators hit before risky deploys. With ?federation= only that tenant is checkpointed.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// The drain itself runs the final checkpoint; after it the
		// stores are closed and a checkpoint would only report errors.
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.URL.Query().Get("federation")
	var tenants []*tenant
	if name == "" {
		for _, t := range s.tenants {
			tenants = append(tenants, t)
		}
	} else {
		t, ok := s.tenants[name]
		if !ok {
			writeError(w, http.StatusNotFound, "server: unknown federation %q", name)
			return
		}
		tenants = []*tenant{t}
	}
	resp := CheckpointResponse{Federations: make(map[string]string, len(tenants))}
	status := http.StatusOK
	for _, t := range tenants {
		if err := t.checkpoint(); err != nil {
			resp.Federations[t.name] = err.Error()
			status = http.StatusInternalServerError
		} else {
			resp.Federations[t.name] = "ok"
		}
	}
	writeJSON(w, status, resp)
}

// tenantFor resolves the request's federation name.
func (s *Server) tenantFor(name string) (*tenant, error) {
	if name == "" {
		if s.sole != "" {
			return s.tenants[s.sole], nil
		}
		return nil, fmt.Errorf("server: %d federations hosted, request must name one", len(s.tenants))
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown federation %q", name)
	}
	return t, nil
}

// jsonContentType is the Content-Type of every JSON response, one
// read-only slice shared by all of them: Header().Set would allocate a
// new one per response.
var jsonContentType = []string{"application/json"}

// writeJSON encodes v before it writes the header, so a value that
// does not encode (a NaN, say) answers 500 with an error body, not the
// status asked for with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		body.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(&body).Encode(ErrorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// policyOf translates the wire policy to the scheduler's, refusing one
// the selection would reject — the weights, bounds or priority order
// that the chosen strategy reads, checked against the metric count — so
// a malformed policy is a 400 before admission and the sweep.
func policyOf(req *QueryRequest) (ires.Policy, error) {
	pol := ires.Policy{
		Weights:      req.Weights,
		Constraints:  req.Constraints,
		LexOrder:     req.LexOrder,
		LexTolerance: req.LexTolerance,
	}
	k := len(federation.Metrics)
	switch req.Strategy {
	case "", "weighted":
		pol.Strategy = ires.WeightedSumSelection
		if len(pol.Weights) > 0 {
			if err := moo.CheckWeights(pol.Weights, k); err != nil {
				return pol, err
			}
		}
		if len(pol.Constraints) > k {
			return pol, fmt.Errorf("%d constraints for %d metrics", len(pol.Constraints), k)
		}
	case "knee":
		pol.Strategy = ires.KneeSelection
	case "lex":
		pol.Strategy = ires.LexicographicSelection
		if len(pol.LexOrder) > 0 {
			if err := moo.CheckLexOrder(pol.LexOrder, k); err != nil {
				return pol, err
			}
		}
	default:
		return pol, fmt.Errorf("unknown strategy %q (weighted, knee, lex)", req.Strategy)
	}
	return pol, nil
}

// maxBodyBytes bounds POST /v1/queries bodies: a QueryRequest is a few
// hundred bytes, so a megabyte is generous headroom and keeps a
// malicious body from ballooning the pooled buffers.
const maxBodyBytes = 1 << 20

// serveScratch is the pooled per-request hot-path state: the HTTP
// body buffer, the decoded request (names and slice capacities reused
// across requests) and the response buffer. One request holds at most
// one scratch from decode to respond, so the pool's steady-state size
// tracks peak concurrency.
type serveScratch struct {
	body []byte
	req  QueryRequest
	buf  bytes.Buffer
	// location holds the target of the scratch's last cluster redirect,
	// the Location header of a 307 (the body buffer API has nowhere else
	// to carry it), kept across requests: a redirect to the same target
	// reuses the string, and location[:] is the header's value slice,
	// assigned like jsonContentType (net/http copies the header map when
	// the handler writes the status, so the slice is not read after).
	location [1]string
	// text is where a redirect assembles its target and message.
	text []byte
	// deadline is the submission's deadline while one is being served.
	deadline lazyDeadline
}

var servePool = sync.Pool{New: func() any { return new(serveScratch) }}

// lazyDeadline is a submission's deadline as the context.Context the
// scheduler sees, without the cost of one until something waits on it.
// Err reads the clock, so a deadline that passed while the request
// held the processor has expired even before any timer could run to
// say so. Only Done — a caller about to wait — arms the timer: once,
// context.WithDeadline(parent, deadline), whose channel and error it
// answers with from then on. Everything else matches that context:
// Deadline is the earlier of the parent's and its own, Err the parent's
// error or DeadlineExceeded, and Value the parent's. It is valid from
// serveSubmit's set to its release, and so only for the calls made
// with it.
type lazyDeadline struct {
	parent   context.Context
	deadline time.Time
	armed    atomic.Pointer[armedDeadline]
}

// armedDeadline is the context a lazyDeadline's Done armed.
type armedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// set makes d the deadline of a submission under parent.
func (d *lazyDeadline) set(parent context.Context, deadline time.Time) {
	d.parent, d.deadline = parent, deadline
}

// release stops an armed timer and drops the parent, before the
// scratch holding d goes back to the pool.
func (d *lazyDeadline) release() {
	if a := d.armed.Swap(nil); a != nil {
		a.cancel()
	}
	d.parent = nil
}

func (d *lazyDeadline) Deadline() (time.Time, bool) {
	if p, ok := d.parent.Deadline(); ok && p.Before(d.deadline) {
		return p, true
	}
	return d.deadline, true
}

func (d *lazyDeadline) Done() <-chan struct{} {
	a := d.armed.Load()
	if a == nil {
		ctx, cancel := context.WithDeadline(d.parent, d.deadline)
		a = &armedDeadline{ctx: ctx, cancel: cancel}
		if !d.armed.CompareAndSwap(nil, a) {
			cancel() // another waiter armed it first
			a = d.armed.Load()
		}
	}
	return a.ctx.Done()
}

func (d *lazyDeadline) Err() error {
	if a := d.armed.Load(); a != nil {
		return a.ctx.Err()
	}
	if err := d.parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(d.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value is the parent's, read through the armed context once there is
// one: that context answers the context package's own lookup with
// itself, so a context derived from d hangs on its timer directly.
func (d *lazyDeadline) Value(key any) any {
	if a := d.armed.Load(); a != nil {
		return a.ctx.Value(key)
	}
	return d.parent.Value(key)
}

// reset clears the decoded request while keeping slice capacity, so
// a decode appends into the existing arrays. Needed because
// json.Unmarshal leaves fields absent from the body untouched.
func (r *QueryRequest) reset() {
	r.Federation = ""
	r.Query = ""
	r.Weights = r.Weights[:0]
	r.Constraints = r.Constraints[:0]
	r.Strategy = ""
	r.LexOrder = r.LexOrder[:0]
	r.LexTolerance = 0
	r.TimeoutMS = 0
}

// readBody reads r's body into buf (reusing its capacity), bounded by
// maxBodyBytes. The bound is checked on every read, the last one too:
// a reader may hand over its final bytes together with io.EOF.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBodyBytes {
			return buf, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeErrorBuf renders an error body into resp and returns the
// status — the buffer-level twin of writeError. Error paths may
// allocate; only the success path is held allocation-free.
func writeErrorBuf(resp *bytes.Buffer, status int, format string, args ...any) int {
	resp.Write(appendErrorBody(resp.AvailableBuffer(), fmt.Sprintf(format, args...)))
	return status
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc := servePool.Get().(*serveScratch)
	defer servePool.Put(sc)
	body, err := readBody(r, sc.body[:0])
	if err != nil {
		// A refused body's buffer is not kept: it may be an oversized one.
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if cap(body) > cap(sc.body) {
		sc.body = body // keep the grown buffer for the next request
	}
	// Read to its end, the body is closed at once: net/http then has
	// nothing to drain after the handler returns, and skips the drain's
	// io.CopyN and its LimitedReader.
	r.Body.Close()
	sc.buf.Reset()
	status := s.serveSubmit(r.Context(), sc, body, &sc.buf)
	writeBuffered(w, status, sc.location[:], sc.buf.Bytes())
}

// writeBuffered sends a response rendered into a buffer; a 307 (a
// cluster redirect) carries location as its Location header's values.
func writeBuffered(w http.ResponseWriter, status int, location []string, body []byte) {
	if status == http.StatusTemporaryRedirect {
		w.Header()["Location"] = location
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// ServeSubmit runs one query submission end to end — decode,
// admission, shared sweep, selection, execution, history record —
// without the net/http plumbing: body is the JSON QueryRequest and the
// JSON response body is appended to resp (pass it empty). The return
// value is the HTTP status the response corresponds to. handleSubmit
// wraps this; benchmarks drive it directly so the serving path's
// allocations are measurable without an HTTP stack in the way.
func (s *Server) ServeSubmit(ctx context.Context, body []byte, resp *bytes.Buffer) int {
	sc := servePool.Get().(*serveScratch)
	defer servePool.Put(sc)
	return s.serveSubmit(ctx, sc, body, resp)
}

func (s *Server) serveSubmit(ctx context.Context, sc *serveScratch, body []byte, resp *bytes.Buffer) int {
	if err := sc.decodeRequest(body); err != nil {
		return writeErrorBuf(resp, http.StatusBadRequest, "bad request body: %v", err)
	}
	t, err := s.tenantFor(sc.req.Federation)
	if err != nil {
		return writeErrorBuf(resp, http.StatusNotFound, "%v", err)
	}
	// The request's one registration. It precedes the loads of the drain
	// flag and of the tenant's ownership state, and both Drain and an
	// outbound handoff store first and read this counter second: whoever
	// flips after this request's load still finds it here and waits for
	// it. The same count is the admission bound below.
	inflight := t.inflight.Add(1)
	defer t.inflight.Add(-1)
	if s.draining.Load() {
		return writeErrorBuf(resp, http.StatusServiceUnavailable, "server is draining")
	}
	q, err := tpch.ParseQueryID(sc.req.Query)
	if err != nil {
		return writeErrorBuf(resp, http.StatusBadRequest, "%v", err)
	}
	if !slices.Contains(t.queries, q) {
		return writeErrorBuf(resp, http.StatusBadRequest, "federation %q does not serve %v", t.name, q)
	}
	// The deadline counts from here, so a request an ownership move holds
	// spends its own budget waiting.
	timeout := s.cfg.RequestTimeout
	if ms := sc.req.TimeoutMS; ms > 0 {
		// Compared in milliseconds, so no value can wrap on conversion:
		// a request only ever shortens the server's deadline.
		most := int64(math.MaxInt64 / time.Millisecond)
		if timeout > 0 {
			most = int64((timeout - 1) / time.Millisecond) // the longest shorter one
		}
		if ms <= most {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if s.cluster != nil {
		if status := s.routeTenant(ctx, t, &inflight, deadline, sc, "/v1/queries", resp); status != 0 {
			return status
		}
	}
	pol, err := policyOf(&sc.req)
	if err != nil {
		return writeErrorBuf(resp, http.StatusBadRequest, "%v", err)
	}

	t.stats.received.Add(1)

	// Admission: QueueDepth bounds how many of the tenant's submissions
	// may be in flight at once; beyond that the server sheds this
	// tenant's load instead of queueing unboundedly (other tenants'
	// counters are unaffected).
	if inflight > int64(s.cfg.QueueDepth) {
		t.stats.rejected.Add(1)
		// Debug, not Info: under sustained overload a line per shed
		// request would turn the log into its own incident.
		s.log.LogAttrs(ctx, slog.LevelDebug, "request rejected",
			slog.String("federation", t.name), slog.String("query", q.String()),
			slog.Int("status", http.StatusTooManyRequests))
		return writeErrorBuf(resp, http.StatusTooManyRequests, "admission queue full (depth %d)", s.cfg.QueueDepth)
	}

	// The round runs under the deadline; the log lines keep the
	// request's own context, which outlives the pooled one.
	roundCtx := ctx
	if timeout > 0 {
		sc.deadline.set(ctx, deadline)
		defer sc.deadline.release()
		roundCtx = &sc.deadline
	}

	began := time.Now()
	dec, coalesced, err := s.submit(roundCtx, t, q, pol)
	latency := time.Since(began)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			t.stats.timeouts.Add(1)
			s.logRequest(ctx, t.name, q, nil, coalesced, latency, http.StatusGatewayTimeout, err)
			return writeErrorBuf(resp, http.StatusGatewayTimeout, "timed out after %v", timeout)
		}
		if errors.Is(err, context.Canceled) {
			// The client went away; nobody reads this response, but the
			// abandonment should not be counted as a server failure.
			t.stats.timeouts.Add(1)
			s.logRequest(ctx, t.name, q, nil, coalesced, latency, http.StatusGatewayTimeout, err)
			return writeErrorBuf(resp, http.StatusGatewayTimeout, "request cancelled")
		}
		t.stats.failed.Add(1)
		s.logRequest(ctx, t.name, q, nil, coalesced, latency, http.StatusInternalServerError, err)
		return writeErrorBuf(resp, http.StatusInternalServerError, "%v", err)
	}
	r := QueryResponse{
		Federation: t.name,
		Query:      q.String(),
		Plan: PlanJSON{
			Query:      dec.Plan.Query.String(),
			JoinAtLeft: dec.Plan.JoinAtLeft,
			NodesLeft:  dec.Plan.NodesLeft,
			NodesRight: dec.Plan.NodesRight,
		},
		EstimatedTimeS: dec.Estimated[0],
		EstimatedUSD:   dec.Estimated[1],
		MeasuredTimeS:  dec.Outcome.TimeS,
		MeasuredUSD:    dec.Outcome.MoneyUSD,
		ParetoSize:     dec.ParetoSize,
		PlanSpace:      dec.PlanSpace,
		PlansEstimated: dec.PlanSpace,
		Coalesced:      coalesced,
		LatencyMS:      float64(latency) / float64(time.Millisecond),
	}
	if cs := s.cluster; cs != nil {
		r.Node = cs.self.ID
		r.Epoch = cs.table.Load().Epoch()
	}
	out, err := appendQueryResponse(resp.AvailableBuffer(), &r)
	if err != nil {
		// A value JSON cannot carry: the round ran, but its answer
		// cannot be sent, and a 200 with no body would hide that.
		err = fmt.Errorf("federation %q, %v: %w", t.name, q, err)
		t.stats.failed.Add(1)
		s.logRequest(ctx, t.name, q, dec, coalesced, latency, http.StatusInternalServerError, err)
		return writeErrorBuf(resp, http.StatusInternalServerError, "%v", err)
	}
	resp.Write(out)
	t.stats.completed.Add(1)
	if coalesced {
		t.stats.coalesced.Add(1)
	} else {
		// Sweep-leader requests account for the sweep's estimation work
		// exactly once; coalesced followers shared it.
		t.stats.plansEstimated.Add(int64(dec.PlanSpace))
		t.stats.planSpace.Store(int64(dec.PlanSpace))
	}
	t.latency[q].Observe(latency.Seconds())
	s.logRequest(ctx, t.name, q, dec, coalesced, latency, http.StatusOK, nil)
	return http.StatusOK
}

// logRequest emits one request-scoped structured log line. Successful
// rounds log at Debug (per-request logging at serving rates is opt-in
// via the log level), shed/expired ones at Info, server faults at
// Warn. The attrs are the request's whole story: tenant, query, the
// decision taken, whether it rode a shared sweep, and wall time. dec
// is nil on failures; passing the decision (not a pre-rendered string)
// keeps Plan.String off the hot path when Debug logging is disabled.
func (s *Server) logRequest(ctx context.Context, federation string, q tpch.QueryID, dec *ires.Decision, coalesced bool, latency time.Duration, status int, err error) {
	level := slog.LevelDebug
	switch {
	case status == http.StatusInternalServerError:
		level = slog.LevelWarn
	case status != http.StatusOK:
		level = slog.LevelInfo
	}
	if !s.log.Enabled(ctx, level) {
		return
	}
	attrs := []slog.Attr{
		slog.String("federation", federation),
		slog.String("query", q.String()),
		slog.Int("status", status),
		slog.Bool("coalesced", coalesced),
		slog.Float64("duration_ms", float64(latency)/float64(time.Millisecond)),
	}
	if dec != nil {
		attrs = append(attrs, slog.String("decision", dec.Plan.String()))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.log.LogAttrs(ctx, level, "request", attrs...)
}

// submit runs one admitted round: share a sweep, select + execute under
// this request's policy, then let go of the sweep — the last request
// sharing it hands its matrix back for reuse.
func (s *Server) submit(ctx context.Context, t *tenant, q tpch.QueryID, pol ires.Policy) (*ires.Decision, bool, error) {
	b, coalesced, err := t.sharedSweep(ctx, q)
	if err != nil {
		return nil, coalesced, err
	}
	defer t.release(b)
	// The sweep may have been shared; the expiry of *this* request is
	// checked before paying for an execution.
	if err := ctx.Err(); err != nil {
		return nil, coalesced, err
	}
	dec, err := t.sched.DecideFromSweep(b.sweep, pol)
	if err != nil {
		return nil, coalesced, err
	}
	return dec, coalesced, nil
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	t, err := s.tenantFor(params.Get("federation"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	q, err := tpch.ParseQueryID(r.PathValue("query"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	slot := slices.Index(t.queries, q)
	if slot < 0 {
		writeError(w, http.StatusBadRequest, "federation %q does not serve %v", t.name, q)
		return
	}
	if s.cluster != nil {
		// The same ownership gate as a submission: only the owner holds
		// the history, and opening a standby's replica shard to answer a
		// read would end its replication.
		sc := servePool.Get().(*serveScratch)
		sc.buf.Reset()
		status := s.routeTenant(r.Context(), t, nil, time.Time{}, sc, r.URL.RequestURI(), &sc.buf)
		if status != 0 {
			writeBuffered(w, status, sc.location[:], sc.buf.Bytes())
		}
		servePool.Put(sc)
		if status != 0 {
			return
		}
	}
	h := t.sched.History(q)
	if h == nil {
		// Nothing opened it here: ownership was released between the gate
		// and the lookup (a handoff committed — the retry is redirected),
		// or an embedder's scheduler has not touched the query yet.
		writeError(w, http.StatusServiceUnavailable, "federation %q has no open history for %v on this node", t.name, q)
		return
	}
	// Paged, most recent first: a serving dashboard cares about now,
	// and a warm multi-thousand-observation history must not be
	// serialized whole by default. offset skips the newest entries, so
	// offset+limit walks back in time page by page.
	limit := defaultHistoryLimit
	if s := params.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", s)
			return
		}
		limit = n
	}
	offset := 0
	if s := params.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", s)
			return
		}
		offset = n
	}
	p := pagePool.Get().(*historyPage)
	defer p.release()
	body, truncated, err := p.render(h, t.name, q.String(), limit, offset, &t.pages[slot])
	if truncated {
		t.stats.histTruncated.Add(1)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	hdr := w.Header()
	hdr["Content-Type"] = jsonContentType
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeS:     time.Since(s.start).Seconds(),
		Draining:    s.draining.Load(),
		Federations: make(map[string]FederationStats, len(s.tenants)),
	}
	for name, t := range s.tenants {
		children := make([]*metrics.Histogram, 0, len(t.latency))
		for _, h := range t.latency {
			children = append(children, h)
		}
		resp.Federations[name] = t.stats.snapshot(metrics.Merged(children...))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
