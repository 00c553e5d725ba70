package server

// Cluster mode: a midasd process can be one member of a consistent-hash
// sharded cluster. Every node hosts every federation spec, but each
// federation is *active* on exactly one node (its ring owner, possibly
// moved by an override); the others hold cold tenants that answer the
// federation's requests with a 307 redirect to the owner. Clients route
// themselves (GET /v1/cluster), so there is no proxy hop on the hot
// path — the serving loop pays one atomic load per request when
// clustered, nothing when standalone.
//
// Ownership moves two ways:
//
//   - POST /v1/admin/handoff — a live migration. The owner holds the
//     tenant's new requests, drains the in-flight ones, streams every
//     query shard (its WAL, CRC-framed) to the target, and the target
//     activates it under a bumped routing epoch, as a takeover would.
//     The held requests then chase the new owner (or, if the move
//     failed, are served where they are); nobody observes an error.
//   - POST /v1/admin/takeover — disaster recovery. A standby that has
//     been receiving the owner's WAL frames synchronously (see
//     Replicate and replstream.go) promotes itself from the replicated
//     state after the owner dies.
//
// Epochs order routing tables: every mutation bumps the epoch, the
// control loop (control.go) exchanges tables (POST /v1/admin/route) until
// the table in force has reached every peer, and the higher epoch always
// wins, so a stale node converges on the first exchange that reaches it —
// within about one SyncInterval once a partition heals. Until then a
// stale owner keeps serving, and acks writes, at its old epoch.
//
// What ownership does is decided in internal/cluster — the table's
// algebra (Pin, Adopt, Fence) and the control loop's decision
// (cluster.Loop) — and carried out here, one seam per step: a tenant
// moves through beginReceiving or beginSending and then finish
// (batch.go); a node starts serving through activate and stops through
// stopServing; a table is installed only by commit and swapped with
// peers only by exchange; and every goroutine the control plane starts
// is spawned under the server's lifetime, which Drain ends and waits out.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/metrics"
	"repro/internal/tpch"
)

// ClusterConfig makes a Server one member of a midasd cluster.
type ClusterConfig struct {
	// NodeID names this member; must appear in Peers.
	NodeID string
	// Peers is the full member set, this node included. Federation
	// names are consistent-hashed over it.
	Peers []cluster.Member
	// Replicate ships every owned federation's WAL appends to the
	// federation's standby (the ring's next distinct member)
	// synchronously: an acked write is on the standby before the
	// response leaves, so a SIGKILLed owner loses nothing a takeover
	// cannot serve. When the standby is down, replication degrades to
	// local durability rather than failing writes, and the control loop
	// re-arms it with a fresh full sync once the standby answers again.
	Replicate bool
	// SyncInterval is the control loop's cadence: its passes — which
	// exchange tables, arm standbys, settle, demote, promote and
	// rebalance — come jittered ½–1½ intervals apart, and at once after a
	// table commit or a detector transition; default 2s.
	SyncInterval time.Duration
	// PeerTimeout bounds one peer HTTP call, and one batch and its ack on
	// a replication stream (default 10s).
	PeerTimeout time.Duration
	// AutoFailover runs the failure detector and promotes this node's
	// standby federations automatically when their owner is confirmed
	// down — no operator takeover POST required. Off by default: the
	// detector can only be as good as its thresholds, and an operator
	// who prefers paging to automation keeps the manual path.
	AutoFailover bool
	// ProbeInterval is the failure detector's probe cadence and each
	// probe's deadline (default 1s). It and the two thresholds below are
	// the detector's: cluster.DetectorConfig applies their defaults.
	ProbeInterval time.Duration
	// SuspectAfter / DownAfter are the consecutive-miss thresholds for
	// the suspect and down verdicts (defaults 3 and 2×SuspectAfter).
	SuspectAfter int
	DownAfter    int
	// AutoRebalance moves federations back onto their ring-computed
	// owner after membership settles (a dead node comes back, a new
	// node joins). Requires AutoFailover (it rides the same detector).
	AutoRebalance bool
}

func (c *ClusterConfig) setDefaults() {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 2 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * time.Second
	}
}

func tenantStateName(st int32) string {
	switch st {
	case cluster.Active:
		return "active"
	case cluster.Remote:
		return "remote"
	case cluster.Receiving:
		return "receiving"
	case cluster.Sending:
		return "sending"
	}
	return "unknown"
}

// Optional scheduler capabilities the cluster layer drives when
// activating or releasing a tenant; ires.Scheduler implements all
// three, stubs may implement none.
type historyOpener interface {
	OpenHistory(q tpch.QueryID) (*core.History, error)
}

type bootstrapper interface {
	Bootstrap(q tpch.QueryID, n int) error
}

type historyDropper interface {
	DropHistories()
}

// clusterState is the Server's cluster half: node identity, the
// epoch-versioned routing table (atomically swapped, lock-free reads on
// the hot path), per-federation replicators and the peer HTTP client.
type clusterState struct {
	cfg   ClusterConfig
	self  cluster.Member
	peers []cluster.Member // every other member
	table atomic.Pointer[cluster.Table]
	// commitMu serializes commit, the table's only writer, so a table is
	// on disk before another commit can find it in force and return.
	commitMu sync.Mutex
	// repl holds one Replicator per federation when Replicate is on;
	// it doubles as each tenant store's histstore.Mirror. streams holds,
	// per federation, the connection its shard bytes leave through
	// (replstream.go) — the replicator's batches, standby syncs, handoffs;
	// both maps are complete before the server serves and never change.
	repl    map[string]*cluster.Replicator
	streams map[string]*replStream
	client  *http.Client
	srv     *Server // set by newServer before any request or loop runs

	// routes persists every committed routing table so a restart recovers
	// the last known placements from disk before any gossip arrives. Nil
	// when the server has no durable store directory; it holds no handle.
	routes *cluster.RouteLog
	// detector is the peer failure detector; nil unless AutoFailover.
	detector *cluster.Detector

	// peerMu guards peerRepl: the per-federation replication health each
	// peer reported on its last answered probe ("streaming", "arming",
	// "degraded", "off"). This is how a standby knows whether the dead
	// owner's stream was healthy — the eligibility gate for promoting
	// from the replica.
	peerMu   sync.Mutex
	peerRepl map[string]map[string]string

	// kick wakes the control loop (buffered 1, see kickLoop); steps
	// counts the steps it launched that have not returned; passes counts
	// the passes it completed that began with none running; transitions
	// counts the detector's transitions, after each of which a rebalance
	// is due; rebalancing counts the rebalance handoffs under way.
	kick        chan struct{}
	steps       atomic.Int32
	passes      atomic.Uint64
	transitions atomic.Uint64
	rebalancing atomic.Int32

	redirects        *metrics.Counter
	handoffsOut      *metrics.Counter
	handoffsIn       *metrics.Counter
	takeovers        *metrics.Counter
	autoTakeovers    *metrics.Counter
	autoBlocked      *metrics.Counter
	rebalances       *metrics.Counter
	routePersistErrs *metrics.Counter
	syncs            *metrics.Counter
	framesShipped    *metrics.Counter
	replDegradedN    *metrics.Counter
	handoffSeconds   *metrics.Histogram
	probeSeconds     *metrics.HistogramVec
}

// newClusterState validates cfg.Cluster and builds the ring and routing
// table. Returns (nil, nil) when the config carries no cluster section.
// When storeDir is non-empty the epoch-versioned override table is
// persisted there (under _cluster/routes.wal) and the last committed
// table is recovered *now*, before the caller decides which tenants to
// build warm — so a restarted former owner redirects from its first
// request instead of serving placements a takeover moved away.
func newClusterState(cfg *ClusterConfig, storeDir string) (*clusterState, error) {
	if cfg == nil {
		return nil, nil
	}
	c := *cfg
	c.setDefaults()
	if c.AutoRebalance && !c.AutoFailover {
		return nil, errors.New("server: cluster: AutoRebalance requires AutoFailover (the rebalancer rides the failure detector)")
	}
	ring, err := cluster.NewRing(c.Peers, 0)
	if err != nil {
		return nil, fmt.Errorf("server: cluster: %w", err)
	}
	table := cluster.NewTable(ring)
	self, ok := table.Member(c.NodeID)
	if !ok {
		return nil, fmt.Errorf("server: cluster: node id %q is not in the peer set", c.NodeID)
	}
	cs := &clusterState{
		cfg:      c,
		self:     self,
		repl:     make(map[string]*cluster.Replicator),
		streams:  make(map[string]*replStream),
		client:   &http.Client{Timeout: c.PeerTimeout},
		peerRepl: make(map[string]map[string]string),
		kick:     make(chan struct{}, 1),
	}
	for _, m := range ring.Members() {
		if m.ID != self.ID {
			cs.peers = append(cs.peers, m)
		}
	}
	if storeDir != "" {
		// "_cluster" cannot collide with a federation's directory: tenant
		// roots are url.PathEscape(name), which never produces it for the
		// federation names the registry accepts.
		log, err := cluster.OpenRouteLog(filepath.Join(storeDir, "_cluster", "routes.wal"))
		if err != nil {
			return nil, fmt.Errorf("server: cluster: %w", err)
		}
		cs.routes = log
		if recovered := table.Adopt(log.Last()); recovered != nil {
			table = recovered
		}
	}
	cs.table.Store(table)
	return cs, nil
}

// commit is the one place a routing table is installed: next maps the
// table in force to its successor (nil keeps it), and every table
// installed is persisted before commit returns and kicks the control
// loop, which carries it to the peers. Persistence failures are
// logged and counted, not propagated: the table is already in force and
// on its way to the peers; losing the disk copy only weakens the next
// restart, it cannot be allowed to wedge routing now. Returns the table
// in force afterwards.
func (cs *clusterState) commit(next func(cur *cluster.Table) *cluster.Table) *cluster.Table {
	cs.commitMu.Lock()
	defer cs.commitMu.Unlock()
	cur := cs.table.Load()
	tab := next(cur)
	if tab == nil {
		return cur
	}
	cs.table.Store(tab)
	defer cs.kickLoop() // once the table is on disk
	if cs.routes == nil {
		return tab
	}
	// srv (and with it the counter) is nil only for a table driven
	// without a server, as the unit tests do.
	if err := cs.routes.Commit(tab.Epoch(), tab.Overrides()); err != nil && cs.srv != nil {
		cs.routePersistErrs.Inc()
		cs.srv.log.Warn("persisting routing table failed", "epoch", tab.Epoch(), "error", err.Error())
	}
	return tab
}

// pin commits fed's move to member id at minEpoch or later and returns
// the epoch in force. A move the table in force refuses — at the top
// epoch, no table can follow it — leaves fed where that table places
// it, and pin answers errConflict.
func (cs *clusterState) pin(fed, id string, minEpoch uint64) (uint64, error) {
	tab := cs.commit(func(cur *cluster.Table) *cluster.Table { return cur.Pin(fed, id, minEpoch) })
	if owner := tab.Owner(fed).ID; owner != id {
		return 0, fmt.Errorf("%w: the table at epoch %d places %q on %s", errConflict, tab.Epoch(), fed, owner)
	}
	return tab.Epoch(), nil
}

// owns reports whether this node is fed's owner under the current
// table.
func (cs *clusterState) owns(fed string) bool {
	return cs.table.Load().Owner(fed).ID == cs.self.ID
}

// replicating reports whether this cluster ships WAL frames to
// standbys at all (needs a second member to ship to).
func (cs *clusterState) replicating() bool {
	return cs.cfg.Replicate && len(cs.cfg.Peers) > 1
}

// newStream builds fed's outbound stream and, when the cluster
// replicates, the replicator whose frames ship down it to whichever
// member the *current* table names as fed's standby: the mirror of fed's
// store (nil otherwise).
func (cs *clusterState) newStream(fed string) histstore.Mirror {
	st := &replStream{cs: cs, fed: fed}
	cs.streams[fed] = st
	if !cs.replicating() {
		return nil
	}
	rep := cluster.NewReplicator(st.ship)
	rep.OnDegrade = func(shard string, err error) {
		cs.replDegradedN.Inc()
		cs.srv.log.Warn("replication degraded", "federation", fed, "query", shard, "error", err.Error())
	}
	cs.repl[fed] = rep
	return rep
}

// call is one peer HTTP call; body, when non-nil, is sent as JSON. Any
// non-2xx status becomes an error carrying the peer's body (the peers
// speak ErrorResponse JSON), a 409 one wrapping errConflict, and a
// 2xx body is decoded into out when out is non-nil.
func (cs *clusterState) call(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cs.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusConflict {
			err = fmt.Errorf("%w: %w", errConflict, err)
		}
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out)
}

// post issues one bodiless peer POST under the server's lifetime, so
// Drain never waits out a PeerTimeout.
func (cs *clusterState) post(url string) error {
	return cs.call(cs.srv.lifeCtx, http.MethodPost, url, nil, nil)
}

// exchange swaps routing tables with one peer. The swap is
// bidirectional: the peer adopts this node's table if it is newer and
// answers with whichever table survived on its side, which is adopted
// here in turn — so one exchange converges both ends, whichever was
// stale.
func (s *Server) exchange(peer cluster.Member) error {
	cs := s.cluster
	tab := cs.table.Load()
	body, _ := json.Marshal(RouteUpdate{Epoch: tab.Epoch(), Overrides: tab.Overrides()})
	var got RouteUpdate
	if err := cs.call(s.lifeCtx, http.MethodPost, peer.Addr+"/v1/admin/route", body, &got); err != nil {
		return err
	}
	cs.commit(func(cur *cluster.Table) *cluster.Table { return cur.Adopt(got.Epoch, got.Overrides) })
	return nil
}

// registerClusterMetrics publishes the midas_cluster_* series.
func (s *Server) registerClusterMetrics() {
	cs := s.cluster
	reg := s.cfg.Metrics
	reg.GaugeFunc("midas_cluster_epoch",
		"Epoch of this node's routing table; cluster-wide agreement means all nodes report the same value.",
		func() float64 { return float64(cs.table.Load().Epoch()) })
	reg.GaugeFunc("midas_cluster_members",
		"Configured cluster members.",
		func() float64 { return float64(len(cs.cfg.Peers)) })
	reg.GaugeFunc("midas_cluster_owned_federations",
		"Federations this node currently serves (tenant state active).",
		func() float64 {
			n := 0
			for _, t := range s.tenants {
				if t.state.Load() == cluster.Active {
					n++
				}
			}
			return float64(n)
		})
	cs.redirects = reg.Counter("midas_cluster_redirects_total",
		"Tenant requests answered with a 307 redirect at the owning node.")
	hv := reg.CounterVec("midas_cluster_handoffs_total",
		"Completed tenant handoffs, by this node's role.", "role")
	cs.handoffsOut = hv.With("source")
	cs.handoffsIn = hv.With("target")
	cs.takeovers = reg.Counter("midas_cluster_takeovers_total",
		"Federations this node promoted itself to own after an owner failure.")
	cs.autoTakeovers = reg.Counter("midas_cluster_auto_takeovers_total",
		"Takeovers initiated by the failure detector, no operator involved.")
	cs.autoBlocked = reg.Counter("midas_cluster_auto_takeovers_blocked_total",
		"Auto-promotions the eligibility gate refused (replication degraded or never reported healthy).")
	cs.rebalances = reg.Counter("midas_cluster_rebalances_total",
		"Federations handed back to their ring-computed owner by the control loop's rebalancing.")
	cs.routePersistErrs = reg.Counter("midas_cluster_route_persist_failures_total",
		"Routing-table commits whose durable write failed (in-memory routing unaffected).")
	if cs.detector != nil {
		for _, m := range cs.peers {
			peer := m.ID
			reg.GaugeFunc("midas_cluster_peer_up",
				"1 while the failure detector's last probe of the peer succeeded, else 0.",
				func() float64 {
					if cs.detector.Status(peer) == cluster.PeerUp {
						return 1
					}
					return 0
				}, "peer", peer)
		}
		reg.GaugeFunc("midas_cluster_peers_suspect",
			"Peers currently in the suspect state (rebalancing pauses while nonzero).",
			func() float64 {
				n := 0
				for _, h := range cs.detector.Snapshot() {
					if h.Status == cluster.PeerSuspect {
						n++
					}
				}
				return float64(n)
			})
		cs.probeSeconds = reg.HistogramVec("midas_cluster_probe_seconds",
			"Failure-detector probe round trips, by peer (failures included, capped at the probe timeout).",
			metrics.ExponentialBuckets(1e-4, 4, 10), "peer")
		reg.GaugeFunc("midas_cluster_rebalance_active",
			"1 while a rebalance handoff is moving a tenant, else 0.",
			func() float64 {
				if cs.rebalancing.Load() > 0 {
					return 1
				}
				return 0
			})
	}
	cs.syncs = reg.Counter("midas_cluster_standby_syncs_total",
		"Full shard syncs shipped to standbys (initial arms and re-arms after degrade).")
	cs.framesShipped = reg.Counter("midas_cluster_frames_shipped_total",
		"WAL frames shipped to standbys on the synchronous replication stream.")
	cs.replDegradedN = reg.Counter("midas_cluster_replication_degraded_total",
		"Times a shard's replication stream degraded to local-only durability.")
	shipSeconds := reg.HistogramVec("midas_replication_ship_seconds",
		"Owner-side wall time of one WAL batch shipped to the standby and acked (an acked write's replicate-wait; failures and redials included).",
		metrics.DefBuckets, "federation")
	for fed, st := range cs.streams {
		st.seconds = shipSeconds.With(fed)
	}
	cs.handoffSeconds = reg.Histogram("midas_cluster_handoff_seconds",
		"End-to-end duration of outbound tenant handoffs.",
		metrics.ExponentialBuckets(1e-3, 4, 10))
}

// ---------------------------------------------------------------------
// Hot-path routing
// ---------------------------------------------------------------------

// routeTenant is the ownership gate every tenant-addressed request
// passes (submissions and history reads). It returns 0 when the request
// should be served locally; otherwise the response (a redirect, or 503
// when the request's wait ran out) is already rendered into resp — a
// redirect's target, the owner's address plus path, into sc.location —
// and the returned status stands. While an ownership move is under way
// on this node, inbound or outbound, the request is held here until the
// move resolves: it completes in milliseconds, and only then does any
// table name the node that will serve the request. inflight, when
// non-nil, is a submission's registration count in t.inflight (taken
// before this load, so an outbound handoff's drain cannot miss it), which
// a hold updates; deadline, unless zero, ends the wait.
func (s *Server) routeTenant(ctx context.Context, t *tenant, inflight *int64, deadline time.Time, sc *serveScratch, path string, resp *bytes.Buffer) int {
	for {
		switch t.state.Load() {
		case cluster.Active:
			return 0
		case cluster.Remote:
			return s.writeRedirect(t, sc, path, resp)
		}
		if !s.hold(ctx, t, inflight, deadline) {
			return writeErrorBuf(resp, http.StatusServiceUnavailable,
				"federation %q handoff still in progress", t.name)
		}
	}
}

// hold waits until the move under way on t resolves (true: route again),
// or until deadline, ctx or the server's lifetime ends (false). A
// submission (inflight non-nil) leaves t.inflight while it waits — the
// move's own drain must not wait for the requests the move holds — and
// re-registers before its caller reloads the state, updating *inflight,
// so a released burst is admitted against QueueDepth like any other.
func (s *Server) hold(ctx context.Context, t *tenant, inflight *int64, deadline time.Time) bool {
	t.stateMu.Lock()
	held := t.held
	t.stateMu.Unlock()
	if held == nil {
		return true // resolved between the state load and here
	}
	if inflight != nil {
		t.inflight.Add(-1)
		defer func() { *inflight = t.inflight.Add(1) }()
	}
	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-held:
		return true
	case <-expired:
	case <-ctx.Done():
	case <-s.lifeCtx.Done():
	}
	return false
}

// writeRedirect renders the 307 through the request's scratch: the
// owner's URL for path goes in sc.location (the handlers hand it to the
// Location header), the body says why — the bytes writeErrorBuf would
// render, appended without formatting.
func (s *Server) writeRedirect(t *tenant, sc *serveScratch, path string, resp *bytes.Buffer) int {
	tab := s.cluster.table.Load()
	owner := tab.Owner(t.name)
	s.cluster.redirects.Inc()
	sc.text = append(append(sc.text[:0], owner.Addr...), path...)
	sc.location[0] = reuse(sc.location[0], sc.text)
	sc.text = strconv.AppendQuote(append(sc.text[:0], "federation "...), t.name)
	sc.text = append(append(append(sc.text, " is served by "...), owner.ID...), " (epoch "...)
	sc.text = append(strconv.AppendUint(sc.text, tab.Epoch(), 10), ')')
	resp.Write(appendErrorBody(resp.AvailableBuffer(), sc.text))
	return http.StatusTemporaryRedirect
}

// reuse returns s when it already reads b, else b as a new string: a
// scratch string that repeats across requests is allocated once.
func reuse(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}

// ---------------------------------------------------------------------
// Cluster endpoints
// ---------------------------------------------------------------------

// handleCluster (GET /v1/cluster) serves the routing table clients use
// to send each federation's requests straight to its owner.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	tab := cs.table.Load()
	resp := ClusterResponse{
		Node:       cs.self.ID,
		Epoch:      tab.Epoch(),
		Members:    tab.Ring().Members(),
		Placements: make(map[string]ClusterPlacement, len(s.tenants)),
	}
	for name, t := range s.tenants {
		p := ClusterPlacement{
			Owner: tab.Owner(name).ID,
			State: tenantStateName(t.state.Load()),
		}
		if standby, ok := tab.Standby(name); ok {
			p.Standby = standby.ID
		}
		resp.Placements[name] = p
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz (GET /readyz) is the load-balancer readiness probe:
// false while draining and while any tenant handoff is in flight on
// this node. Liveness stays on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.cluster != nil {
		for name, t := range s.tenants {
			if st := t.state.Load(); st == cluster.Receiving || st == cluster.Sending {
				writeJSON(w, http.StatusServiceUnavailable,
					map[string]string{"status": "handoff", "federation": name})
				return
			}
		}
		// Degraded replication means acked writes are on one disk instead
		// of two: stay live (the node still serves correctly) but tell the
		// load balancer so it can shed toward the fully durable node.
		if degraded := s.degradedFederations(); len(degraded) > 0 {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"status": "degraded", "degraded": degraded})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// degradedFederations lists the active federations whose replication
// stream has degraded to local-only durability, sorted for stable
// output. Empty when replication is off.
func (s *Server) degradedFederations() []string {
	if !s.cluster.replicating() {
		return nil
	}
	var out []string
	for name, t := range s.tenants {
		if t.state.Load() == cluster.Active && s.cluster.replHealth(t) == "degraded" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// handleRoute (POST /v1/admin/route) is a peer's half of exchange: adopt
// the body's table if its epoch beats ours, answer with whichever table
// survived.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var upd RouteUpdate
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&upd)
	if err == nil && upd.Epoch == math.MaxUint64 {
		err = errNoSuccessor
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad route update: %v", err)
		return
	}
	tab := s.cluster.commit(func(cur *cluster.Table) *cluster.Table { return cur.Adopt(upd.Epoch, upd.Overrides) })
	writeJSON(w, http.StatusOK, RouteUpdate{Epoch: tab.Epoch(), Overrides: tab.Overrides()})
}

// ---------------------------------------------------------------------
// Handoff: source side
// ---------------------------------------------------------------------

// handleHandoff (POST /v1/admin/handoff?federation=&target=) is the
// operator entry point for a live migration, addressed to the current
// owner.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	target, ok := cs.table.Load().Member(r.URL.Query().Get("target"))
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown target node %q", r.URL.Query().Get("target"))
		return
	}
	if target.ID == cs.self.ID {
		writeError(w, http.StatusBadRequest, "federation %q is already served here", fed)
		return
	}
	began := time.Now()
	epoch, moved, err := s.handoffTenant(r.Context(), t, target)
	if err != nil {
		writeError(w, errStatus(err), "handoff of %q to %s failed: %v", fed, target.ID, err)
		return
	}
	cs.handoffSeconds.Observe(time.Since(began).Seconds())
	writeJSON(w, http.StatusOK, HandoffResponse{
		Federation:   fed,
		From:         cs.self.ID,
		To:           target.ID,
		Epoch:        epoch,
		Observations: moved,
		DurationMS:   float64(time.Since(began)) / float64(time.Millisecond),
	})
}

// errConflict is a refusal answered with 409: of a move the federation's
// state here rules out (a handoff of one that is not active, an
// activation of one that is not remote), or of a handoff's activate the
// target will not run. call wraps a peer's 409 in it.
var errConflict = errors.New("conflict")

// errNoSuccessor refuses an epoch that no table could follow: one from
// outside (400), since a node adopting it could never commit another
// move, or the one a handoff would mint at the top epoch (409).
var errNoSuccessor = errors.New("epoch has no successor")

// errStatus is the status a failed ownership move answers with.
func errStatus(err error) int {
	if errors.Is(err, errConflict) || errors.Is(err, errNoSuccessor) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// handoffTenant runs the source half of a live migration: begin sending
// (from here the federation's requests wait on this node), drain the
// in-flight ones, ship every shard to the target, where the tenant stays
// remote, and activate it there under a bumped epoch, then stop serving
// here; the held requests follow the table to the target. Nothing is
// redirected before the target serves, so no client is bounced between
// two nodes that each name the other. Any failure before activation
// rolls back — the handoff is all-or-nothing, and the target has nothing
// to undo: a replica is the next transfer's to replace. Activation itself
// is the one step whose failure cannot be taken at face value (the target
// may have committed and the ack been lost, or the request may still be
// on its way), so an activate error is settled with the target before
// anything is reverted. A table at the top epoch has no epoch left to
// mint, so the handoff is refused before anything is held.
func (s *Server) handoffTenant(ctx context.Context, t *tenant, target cluster.Member) (uint64, map[string]int, error) {
	cs := s.cluster
	if cs.table.Load().Epoch() == math.MaxUint64 {
		return 0, nil, errNoSuccessor
	}
	if !t.beginSending() {
		return 0, nil, fmt.Errorf("%w: federation is %s here, not active", errConflict, tenantStateName(t.state.Load()))
	}
	s.log.Info("handoff started", "federation", t.name, "target", target.ID)
	fail := func(err error) (uint64, map[string]int, error) {
		s.rollback(t)
		return 0, nil, err
	}

	// Drain: requests that loaded state before the flip finish under
	// the old owner; everything after is held. The inflight counter is
	// incremented before the state load, so a zero here proves no
	// straggler is still appending history.
	if err := t.drainInflight(ctx); err != nil {
		return fail(fmt.Errorf("drain: %w", err))
	}
	// The outbound stream supersedes any standby stream: the target
	// rebuilds its replica from the handoff itself.
	if rep := cs.repl[t.name]; rep != nil {
		rep.DisarmAll()
	}
	moved := make(map[string]int, len(t.queries))
	if t.store != nil {
		st := cs.streams[t.name]
		for _, q := range t.queries {
			if err := st.shipShard(target, t.store, q.String(), nil); err != nil {
				return fail(fmt.Errorf("ship %v: %w", q, err))
			}
			if h := t.sched.History(q); h != nil {
				moved[q.String()] = h.Len()
			}
		}
		st.hangUp()
	}
	// Activation commits the move: the target opens the shipped state,
	// flips its tenant active and bumps the routing epoch.
	a := &activation{target: target, epoch: cs.table.Load().Epoch() + 1}
	if a.epoch == 0 { // the table reached the top epoch during the ship
		return fail(errNoSuccessor)
	}
	a.url = target.Addr + "/v1/admin/handoff/activate?" +
		url.Values{"federation": {t.name}, "epoch": {strconv.FormatUint(a.epoch, 10)}}.Encode()
	if err := cs.post(a.url); err != nil {
		// A failed POST does not mean a failed activation: opening the
		// shipped shards can outlive PeerTimeout, and the ack may have
		// been lost after the target committed. Reverting to active
		// while the target serves at a higher epoch would fork the
		// federation's history, so settle the outcome first.
		got, known := s.settle(t, a)
		switch {
		case !known:
			// Target unreachable: the tenant stays sending, its requests
			// held, and the control loop settles it every pass, for the
			// server's lifetime, until the target answers.
			t.unsettled.Store(a)
			cs.kickLoop()
			return 0, nil, fmt.Errorf("activate outcome unknown (target unreachable), resolving in background: %w", err)
		case got == 0:
			return 0, nil, fmt.Errorf("activate: %w", err)
		}
		return got, moved, nil
	}
	got, err := s.commitHandoff(t, a)
	return got, moved, err
}

// activation is one handoff's activate: the target, the epoch it mints
// and the URL that asks for it.
type activation struct {
	target cluster.Member
	epoch  uint64
	url    string
}

// settle resolves, once, a handoff whose activate POST failed. It
// re-sends the activate, idempotent on the target: success commits. A
// refusal (409) is final — none of this handoff's activates can run on
// the target after it — and the target's table decides: placed here, it
// never activated, so roll back, stepping to the epoch it fenced so the
// next handoff mints a newer one; placed elsewhere, the move committed and
// may have moved on since, so adopt the newer table and stop serving.
// Returns the committed epoch (0: rolled back) and false while the outcome
// is unknown, the tenant still sending and its requests held.
func (s *Server) settle(t *tenant, a *activation) (uint64, bool) {
	cs := s.cluster
	err := cs.post(a.url)
	if err == nil {
		got, _ := s.commitHandoff(t, a)
		return got, true
	}
	var cr ClusterResponse
	if !errors.Is(err, errConflict) || cs.call(s.lifeCtx, http.MethodGet, a.target.Addr+"/v1/cluster", nil, &cr) != nil {
		return 0, false
	}
	if cr.Placements[t.name].Owner == cs.self.ID {
		cs.commit(func(cur *cluster.Table) *cluster.Table { return cur.Fence(a.epoch) })
		s.rollback(t)
		s.log.Warn("handoff rolled back, target never activated", "federation", t.name, "target", a.target.ID)
		return 0, true
	}
	// Demotion leaves a sending tenant alone, so only this node can stop
	// it serving, and only once its table has moved on too: the target's
	// table carries the move.
	if s.exchange(a.target); cs.owns(t.name) {
		return 0, false
	}
	s.stopServing(t)
	s.log.Info("handoff complete", "federation", t.name, "target", a.target.ID, "owner", cr.Placements[t.name].Owner)
	return cs.table.Load().Epoch(), true
}

// commitHandoff commits the source half of a handoff the target has
// activated: pin the federation on the target (the commit's kick carries
// the table to the peers) and stop serving it here. Returns the
// committed epoch. If this node's table refuses the pin, the table in
// force decides, as in a rollback, and the control loop carries it to
// the target.
func (s *Server) commitHandoff(t *tenant, a *activation) (uint64, error) {
	cs := s.cluster
	got, err := cs.pin(t.name, a.target.ID, a.epoch)
	if err != nil {
		s.rollback(t)
		s.log.Warn("handoff refused by the routing table", "federation", t.name, "target", a.target.ID, "error", err.Error())
		return 0, err
	}
	s.stopServing(t)
	cs.handoffsOut.Inc()
	s.log.Info("handoff complete", "federation", t.name, "target", a.target.ID, "epoch", got)
	return got, nil
}

// rollback ends an outbound move that did not commit here: serve again —
// unless a table adopted meanwhile places the federation elsewhere
// (demotion leaves a sending tenant alone), in which case stop serving
// it. Reports whether this node serves it again.
func (s *Server) rollback(t *tenant) bool {
	if s.cluster.owns(t.name) {
		t.finish(cluster.Active)
		return true
	}
	s.stopServing(t)
	return false
}

// stopServing is the one way a node stops serving a federation it has
// begun sending: drain the in-flight requests, stop replicating, release
// local state, then release the held requests to the table's owner.
func (s *Server) stopServing(t *tenant) {
	cs := s.cluster
	ctx, cancel := context.WithTimeout(s.lifeCtx, cs.cfg.PeerTimeout)
	err := t.drainInflight(ctx)
	cancel()
	if err != nil {
		// Stragglers get errors from the closed store rather than this
		// node silently forking the federation's history.
		s.log.Warn("drain before release incomplete", "federation", t.name, "error", err.Error())
	}
	if rep := cs.repl[t.name]; rep != nil {
		rep.DisarmAll()
	}
	if err := t.releaseState(); err != nil {
		s.log.Warn("closing store on ownership release", "federation", t.name, "error", err.Error())
	}
	t.finish(cluster.Remote)
}

// drainInflight waits for the tenant's in-flight requests to finish;
// by the time it returns, every request routed before the state flip
// has completed (or ctx expired).
func (t *tenant) drainInflight(ctx context.Context) error {
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for t.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d requests still in flight: %w", t.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// demote is the control loop's step for a federation served here that
// the table places elsewhere. beginSending makes it single-entry and
// yields to a handoff already sending; rollback keeps serving if the
// table moved back meanwhile.
func (s *Server) demote(t *tenant) {
	if !t.beginSending() || s.rollback(t) {
		return
	}
	tab := s.cluster.table.Load()
	s.log.Warn("demoted stale ownership", "federation", t.name,
		"owner", tab.Owner(t.name).ID, "epoch", tab.Epoch())
}

// ---------------------------------------------------------------------
// Inbound ownership
// ---------------------------------------------------------------------

// handleHandoffActivate (POST /v1/admin/handoff/activate?federation=&epoch=)
// commits an inbound handoff: the source has shipped its shards to this
// node's remote tenant, which activate opens and serves from at epoch or
// later. Idempotent — a source whose ack was lost (activation can outlive
// its PeerTimeout) re-sends the activate, and a tenant already active
// answers with the committed epoch instead of an error. Once an activate
// at epoch has ended here, either way, no other at epoch or below runs:
// the refusal (409) is how the source learns that a late copy of its
// request can no longer activate the federation behind its back.
func (s *Server) handleHandoffActivate(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err == nil && epoch == math.MaxUint64 {
		err = errNoSuccessor
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad epoch: %v", err)
		return
	}
	got, err := s.activate(t, epoch, func() error {
		if epoch <= t.fenced {
			return fmt.Errorf("%w: an activate at epoch %d or later has ended here", errConflict, t.fenced)
		}
		return nil
	}, cs.handoffsIn)
	if errors.Is(err, errConflict) && t.state.Load() == cluster.Active {
		// Retried commit: re-assert the override at the requested epoch
		// and report success again.
		got, err = cs.pin(fed, cs.self.ID, epoch)
	}
	if err != nil {
		writeError(w, errStatus(err), "activating %q: %v", fed, err)
		return
	}
	s.log.Info("handoff received", "federation", fed, "epoch", got)
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": got})
}

// activate is the one routine an inbound ownership change runs — a
// handoff's activate, an operator takeover, an auto-promotion. It holds
// the federation's requests (beginReceiving), asks fence whether the move
// may run, opens its local state (activateTenant) and asks fence again —
// opening takes real time, and the table may have moved underneath it —
// then pins the federation on this node at minEpoch or one past the
// table, whichever is later (the commit's kick carries the table to the
// peers), before serving the held requests and counting the change. It
// returns the committed epoch; a failure, a pin the table refuses
// included, leaves the tenant remote with nothing open. Either way it
// raises t.fenced to minEpoch.
func (s *Server) activate(t *tenant, minEpoch uint64, fence func() error, counter *metrics.Counter) (uint64, error) {
	cs := s.cluster
	t.activateMu.Lock()
	defer t.activateMu.Unlock()
	defer func() { t.fenced = max(t.fenced, minEpoch) }()
	if !t.beginReceiving() {
		return 0, fmt.Errorf("%w: federation is %s here, not remote", errConflict, tenantStateName(t.state.Load()))
	}
	err := fence()
	if err == nil {
		err = activateTenant(t, fence)
	}
	var got uint64
	if err == nil {
		if got, err = cs.pin(t.name, cs.self.ID, minEpoch); err != nil {
			err = errors.Join(err, t.releaseState())
		}
	}
	if err != nil {
		t.finish(cluster.Remote)
		return 0, err
	}
	t.finish(cluster.Active)
	counter.Inc()
	return got, nil
}

// handleTakeover (POST /v1/admin/takeover?federation=) makes this node
// fed's owner from locally replicated state — the operator's recovery
// path after the owner died: activate with no eligibility gate and no
// fence.
func (s *Server) handleTakeover(w http.ResponseWriter, r *http.Request) {
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	epoch, err := s.activate(t, 0, func() error { return nil }, s.cluster.takeovers)
	if err != nil {
		writeError(w, errStatus(err), "takeover of %q: %v", fed, err)
		return
	}
	recovered := make(map[string]int, len(t.queries))
	for _, q := range t.queries {
		if h := t.sched.History(q); h != nil {
			recovered[q.String()] = h.Len()
		}
	}
	s.log.Info("takeover complete", "federation", fed, "epoch", epoch)
	writeJSON(w, http.StatusOK, HandoffResponse{
		Federation:   fed,
		To:           s.cluster.self.ID,
		Epoch:        epoch,
		Observations: recovered,
	})
}

// activateTenant is the one routine that opens a tenant: at boot for
// the tenants this node owns, and in activate for the rest. It opens each
// query's history in the spec's order
// (recovering whatever the store holds: this node's own WAL, the replica
// a handoff or an owner's stream wrote, or nothing), bootstraps the
// shortfall below the spec's target in the same order, and then asks
// fence, when non-nil, whether the activation still stands. The first
// activation that succeeds attaches the spec's chaos, so every bootstrap
// trains on the clean cloud. A failure releases everything the
// activation opened before it returns — the scheduler's histories are
// dropped, the store's shards closed — so a tenant left remote holds no
// live history and its store takes replica batches again.
func activateTenant(t *tenant, fence func() error) error {
	err := openHistories(t)
	if err == nil && fence != nil {
		err = fence()
	}
	if err != nil {
		return errors.Join(err, t.releaseState())
	}
	if t.attachChaos != nil {
		t.attachChaos()
		t.attachChaos = nil
	}
	return nil
}

// openHistories opens every query's history before any bootstrap
// executes. Opening recovers durable state, so a corrupt shard fails the
// activation, not a request, and fails it before anything is appended
// to the other shards.
func openHistories(t *tenant) error {
	if op, ok := t.sched.(historyOpener); ok {
		for _, q := range t.queries {
			if _, err := op.OpenHistory(q); err != nil {
				return err
			}
		}
	}
	bs, ok := t.sched.(bootstrapper)
	if !ok {
		return nil
	}
	for _, q := range t.queries {
		if h := t.sched.History(q); h != nil && h.Len() < t.bootstrap {
			if err := bs.Bootstrap(q, t.bootstrap-h.Len()); err != nil {
				return fmt.Errorf("bootstrap %v: %w", q, err)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Standby arming
// ---------------------------------------------------------------------

// syncTenant is the control loop's arm step: it full-syncs every shard
// of one owned tenant whose replication stream is not streaming (never
// armed, or degraded by a standby outage) to its standby — hold at the
// cut, ship, release — after which the synchronous frame stream resumes.
// Returns false when any shard's sync failed, so the loop backs off: a
// standby that keeps failing (down, hung, partitioned) costs one slow
// ship per backoff window, not one per pass.
func (s *Server) syncTenant(t *tenant, standby cluster.Member) bool {
	cs := s.cluster
	rep := cs.repl[t.name]
	if t.state.Load() != cluster.Active {
		return true
	}
	healthy := true
	for _, q := range t.queries {
		shard := q.String()
		if rep.Streaming(shard) {
			continue
		}
		// Hold the stream at the cut: frames appended while the shard is
		// in flight buffer locally and ship only after the standby acks
		// the state they extend. Acks do not wait on a held stream, so a
		// hung standby slows only this sync.
		err := cs.streams[t.name].shipShard(standby, t.store, shard, func(next uint64) { rep.Hold(shard, next) })
		if err != nil {
			rep.Disarm(shard)
			s.log.Warn("standby sync failed", "federation", t.name, "query", shard,
				"standby", standby.ID, "error", err.Error())
			healthy = false
			continue
		}
		rep.Release(shard)
		cs.syncs.Inc()
		s.log.Info("standby armed", "federation", t.name, "query", shard, "standby", standby.ID)
	}
	return healthy
}
