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
//   - POST /v1/admin/handoff — a live migration. The owner drains the
//     tenant's in-flight requests, streams every query shard (its
//     WAL, CRC-framed) to the target, and the target activates under
//     a bumped routing epoch. Requests arriving mid-handoff are
//     redirected to the target, which holds them until activation;
//     nobody observes an error.
//   - POST /v1/admin/takeover — disaster recovery. A standby that has
//     been receiving the owner's WAL frames synchronously (see
//     Replicate and replstream.go) promotes itself from the replicated
//     state after the owner dies.
//
// Epochs order routing tables: every mutation bumps the epoch, nodes
// gossip tables after mutations (POST /v1/admin/route), and the higher
// epoch always wins, so a stale node converges on the first gossip or
// redirect it sees.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
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
	// local durability rather than failing writes, and the sync loop
	// re-arms it with a fresh full sync once the standby answers again.
	Replicate bool
	// SyncInterval is the cadence of the standby sync loop (default 2s).
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
	// probe's deadline (default 1s).
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
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DownAfter <= c.SuspectAfter {
		c.DownAfter = 2 * c.SuspectAfter
	}
}

// Tenant ownership states. The zero value is active so standalone
// servers never touch the state machine.
const (
	// tenantActive: this node owns the federation and serves it.
	tenantActive int32 = iota
	// tenantRemote: another node owns it; requests get 307.
	tenantRemote
	// tenantReceiving: an inbound handoff or takeover is materializing
	// state here; requests are held until activation.
	tenantReceiving
	// tenantSending: an outbound handoff is draining and streaming
	// state away; requests are redirected at the target.
	tenantSending
)

func tenantStateName(st int32) string {
	switch st {
	case tenantActive:
		return "active"
	case tenantRemote:
		return "remote"
	case tenantReceiving:
		return "receiving"
	case tenantSending:
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
	table atomic.Pointer[cluster.Table]
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
	// when the server has no durable store directory.
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

	// accepted is the standby half of replstream.go: the upgraded
	// connections this node is reading batches from, each with a
	// goroutine acceptedWG counts. acceptedClosed is set by closeStreams.
	acceptedMu     sync.Mutex
	accepted       map[net.Conn]struct{}
	acceptedClosed bool
	acceptedWG     sync.WaitGroup

	syncDone chan struct{} // closed when the standby sync loop exits
	// rebalanceKick wakes the rebalance loop (buffered 1: a kick during
	// a rebalance coalesces into one more pass); rebalanceDone is closed
	// when the loop exits; rebalancing is 1 while a pass runs.
	rebalanceKick chan struct{}
	rebalanceDone chan struct{}
	rebalancing   atomic.Bool

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
		accepted: make(map[net.Conn]struct{}),
		client:   &http.Client{Timeout: c.PeerTimeout},
		peerRepl: make(map[string]map[string]string),
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
		if epoch, overrides := log.Last(); epoch > table.Epoch() {
			table = table.WithOverrides(epoch, overrides)
		}
	}
	cs.table.Store(table)
	return cs, nil
}

// persistTable durably records a just-committed routing table. Failures
// are logged and counted, not propagated: the commit already happened
// in memory and is being gossiped; losing the disk copy only weakens
// the next restart, it cannot be allowed to wedge routing now.
func (cs *clusterState) persistTable(epoch uint64, overrides map[string]string) {
	if cs.routes == nil {
		return
	}
	if err := cs.routes.Append(epoch, overrides); err != nil {
		if cs.routePersistErrs != nil {
			cs.routePersistErrs.Inc()
		}
		if cs.srv != nil {
			cs.srv.log.Warn("persisting routing table failed", "epoch", epoch, "error", err.Error())
		}
	}
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

// post issues one bodiless peer POST and folds any non-2xx status into
// an error carrying the peer's body (the peers speak ErrorResponse JSON).
func (cs *clusterState) post(url string) error {
	resp, err := cs.client.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// postJSON issues one peer POST and decodes the 2xx response body into
// out.
func (cs *clusterState) postJSON(url string, body []byte, out any) error {
	resp, err := cs.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out)
}

// applyOverride pins fed to node in the routing table, bumping the
// epoch to at least minEpoch, and returns the resulting epoch.
// Idempotent: a table that already places fed on node at minEpoch or
// later (the move's gossip beat the local apply) is left untouched, so
// one ownership change bumps the cluster-wide epoch exactly once.
func (cs *clusterState) applyOverride(fed, node string, minEpoch uint64) uint64 {
	for {
		cur := cs.table.Load()
		if cur.Epoch() >= minEpoch && cur.Owner(fed).ID == node {
			return cur.Epoch()
		}
		next, ok := cur.WithOverride(fed, node)
		if !ok {
			return cur.Epoch() // unknown member: keep the table
		}
		next = next.WithEpochAtLeast(minEpoch)
		if cs.table.CompareAndSwap(cur, next) {
			cs.persistTable(next.Epoch(), next.Overrides())
			return next.Epoch()
		}
	}
}

// adoptTable installs a gossiped table if its epoch is newer. Epochs
// are minted as local-epoch+1 with no global allocator, so two
// concurrent ownership changes (of different federations, or of the
// same one after a partition) can produce distinct tables at the SAME
// epoch; adopting one at an equal epoch merges the override sets
// deterministically — union, lexicographically smaller member ID on a
// per-federation conflict, so every node computes the same table
// regardless of arrival order — and bumps past both inputs so the
// merged table wins everywhere. Callers that adopt must reconcile local
// tenant state against the new table (Server.reconcileTenants).
func (cs *clusterState) adoptTable(epoch uint64, overrides map[string]string) bool {
	for {
		cur := cs.table.Load()
		if epoch < cur.Epoch() {
			return false
		}
		if epoch == cur.Epoch() {
			curOv := cur.Overrides()
			if overridesEqual(curOv, overrides) {
				return false
			}
			next := cur.WithOverrides(epoch+1, mergeOverrides(curOv, overrides))
			if cs.table.CompareAndSwap(cur, next) {
				cs.persistTable(next.Epoch(), next.Overrides())
				return true
			}
			continue
		}
		if next := cur.WithOverrides(epoch, overrides); cs.table.CompareAndSwap(cur, next) {
			cs.persistTable(next.Epoch(), next.Overrides())
			return true
		}
	}
}

// overridesEqual reports whether two override maps place the same
// federations on the same members.
func overridesEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for fed, id := range a {
		if b[fed] != id {
			return false
		}
	}
	return true
}

// mergeOverrides unions two override sets; a federation present in both
// with different owners resolves to the lexicographically smaller
// member ID. The merge is commutative, so nodes merging the same pair
// of tables in either order agree; the losing owner is demoted by the
// reconcile pass when the merged table reaches it.
func mergeOverrides(a, b map[string]string) map[string]string {
	out := make(map[string]string, len(a)+len(b))
	for fed, id := range a {
		out[fed] = id
	}
	for fed, id := range b {
		if cur, ok := out[fed]; !ok || id < cur {
			out[fed] = id
		}
	}
	return out
}

// gossip pushes this node's routing table to every other peer,
// best-effort and concurrently. Each exchange is bidirectional: the
// peer answers with whichever table survived on its side, and a newer
// (or mergeable same-epoch) answer is adopted here — so one exchange
// converges both ends, whichever was stale.
func (cs *clusterState) gossip() {
	tab := cs.table.Load()
	body, _ := json.Marshal(RouteUpdate{Epoch: tab.Epoch(), Overrides: tab.Overrides()})
	for _, m := range tab.Ring().Members() {
		if m.ID == cs.self.ID {
			continue
		}
		go func(addr string) {
			var peer RouteUpdate
			if err := cs.postJSON(addr+"/v1/admin/route", body, &peer); err != nil {
				return
			}
			if cs.adoptTable(peer.Epoch, peer.Overrides) {
				cs.srv.reconcileTenants()
			}
		}(m.Addr)
	}
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
				if t.state.Load() == tenantActive {
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
		"Federations handed back to their ring-computed owner by the rebalance loop.")
	cs.routePersistErrs = reg.Counter("midas_cluster_route_persist_failures_total",
		"Routing-table commits whose durable append failed (in-memory routing unaffected).")
	if cs.detector != nil {
		for _, m := range cs.cfg.Peers {
			if m.ID == cs.self.ID {
				continue
			}
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
			"1 while a rebalance pass is moving tenants, else 0.",
			func() float64 {
				if cs.rebalancing.Load() {
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
// should be served locally; otherwise the response (redirect or
// hold-timeout error) is already rendered into resp — a redirect's
// target, the owner's address plus path, into *location — and the
// returned status stands. A submission has already registered in
// t.inflight, so an outbound handoff's drain cannot miss it.
func (s *Server) routeTenant(ctx context.Context, t *tenant, path string, location *string, resp *bytes.Buffer) int {
	for {
		switch st := t.state.Load(); st {
		case tenantActive:
			return 0
		case tenantReceiving:
			// An inbound handoff is materializing this tenant here; it
			// completes in milliseconds, so holding the request beats
			// bouncing the client back to a source that is already
			// redirecting forward.
			if !t.waitActive(ctx) {
				return writeErrorBuf(resp, http.StatusServiceUnavailable,
					"federation %q handoff still in progress", t.name)
			}
		default: // tenantRemote, tenantSending
			return s.writeRedirect(t, path, location, resp)
		}
	}
}

// writeRedirect renders the 307: the owner's URL for path goes in
// *location (the handlers copy it to the Location header), the body
// says why.
func (s *Server) writeRedirect(t *tenant, path string, location *string, resp *bytes.Buffer) int {
	cs := s.cluster
	// Hint before table: a committing handoff updates the table and only
	// then clears the hint, so a nil hint here means the table read next
	// already names the new owner — the other order can pair a stale
	// table with a cleared hint and redirect the client at this node.
	hint := t.ownerHint.Load()
	tab := cs.table.Load()
	owner := tab.Owner(t.name)
	if owner.ID == cs.self.ID && hint != nil {
		// Mid-handoff the table still points here; the hint set before
		// the tenant entered sending names the real destination.
		owner = *hint
	}
	cs.redirects.Inc()
	*location = owner.Addr + path
	return writeErrorBuf(resp, http.StatusTemporaryRedirect,
		"federation %q is served by %s (epoch %d)", t.name, owner.ID, tab.Epoch())
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
			if st := t.state.Load(); st == tenantReceiving || st == tenantSending {
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
		if t.state.Load() == tenantActive && s.cluster.replHealth(t) == "degraded" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// handleRoute (POST /v1/admin/route) is table gossip: adopt the body's
// table if its epoch beats ours, answer with whichever table survived.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var upd RouteUpdate
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, "bad route update: %v", err)
		return
	}
	if s.cluster.adoptTable(upd.Epoch, upd.Overrides) {
		s.reconcileTenants()
	}
	tab := s.cluster.table.Load()
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
		status := http.StatusInternalServerError
		if t.state.Load() != tenantSending && t.state.Load() != tenantActive {
			status = http.StatusConflict
		}
		writeError(w, status, "handoff of %q to %s failed: %v", fed, target.ID, err)
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

// handoffTenant runs the source half of a live migration: prepare the
// target (it now holds requests), flip to sending (new requests now
// chase the target), drain in-flight ones, stream every shard, activate
// the target under a bumped epoch, then release local state and gossip
// the new table. The target must be holding before the source starts
// redirecting: until prepare lands it is still remote and answers 307
// back at this node, and a client bounced between the two at loopback
// speed burns its whole redirect budget inside one scheduling delay.
// Any failure before activation aborts the target's half and restores
// the tenant to active — the handoff is all-or-nothing. Activation
// itself is the one step whose failure cannot be taken at face value
// (the target may have committed and the ack been lost), so an activate
// error is settled by verification before anything is reverted.
func (s *Server) handoffTenant(ctx context.Context, t *tenant, target cluster.Member) (uint64, map[string]int, error) {
	cs := s.cluster
	if st := t.state.Load(); st != tenantActive {
		return 0, nil, fmt.Errorf("federation is %s here, not active", tenantStateName(st))
	}
	// Claiming the hint is what makes the handoff single-entry now that
	// the state flips only after a round trip: a second handoff of this
	// federation stops here, before it could prepare — and later abort —
	// a target of its own. The hint is not read while the tenant is
	// active, and is in place before the first redirect needs it.
	hint := &target
	if !t.ownerHint.CompareAndSwap(nil, hint) {
		return 0, nil, errors.New("another handoff of this federation is in flight")
	}
	s.log.Info("handoff started", "federation", t.name, "target", target.ID)

	fedQ := "?federation=" + t.name
	if err := cs.post(target.Addr + "/v1/admin/handoff/prepare" + fedQ); err != nil {
		t.ownerHint.CompareAndSwap(hint, nil)
		return 0, nil, fmt.Errorf("prepare: %w", err)
	}
	// (A stale-owner demotion can take active→sending first and
	// overwrite the hint, hence the compare-and-swap release.)
	abortTarget := func() {
		if err := cs.post(target.Addr + "/v1/admin/handoff/abort" + fedQ); err != nil {
			s.log.Warn("handoff abort failed", "federation", t.name, "error", err.Error())
		}
		t.ownerHint.CompareAndSwap(hint, nil)
	}
	if !t.state.CompareAndSwap(tenantActive, tenantSending) {
		abortTarget()
		return 0, nil, fmt.Errorf("federation is %s here, not active", tenantStateName(t.state.Load()))
	}
	// Serve here again before the target lets go of the requests it
	// holds: released, they chase the table back to this node.
	abort := func() {
		t.state.Store(tenantActive)
		abortTarget()
	}

	// Drain: requests that loaded state before the flip finish under
	// the old owner; everything after redirects. The inflight counter
	// is incremented before the state load, so a zero here proves no
	// straggler is still appending history.
	if err := t.drainInflight(ctx); err != nil {
		abort()
		return 0, nil, fmt.Errorf("drain: %w", err)
	}
	// The outbound stream supersedes any standby stream: the target
	// rebuilds its replica from the handoff itself.
	if rep := cs.repl[t.name]; rep != nil {
		rep.DisarmAll()
	}
	moved := make(map[string]int, len(t.queries))
	if t.store != nil {
		st := cs.streams[t.name]
		for _, q := range sortedQueries(t) {
			if err := st.shipShard(target, t.store, q.String(), replHandoff, nil); err != nil {
				abort()
				return 0, nil, fmt.Errorf("ship %v: %w", q, err)
			}
			if h := t.sched.History(q); h != nil {
				moved[q.String()] = h.Len()
			}
		}
		st.hangUp()
	}
	// Activation commits the move: the target opens the shipped state,
	// flips its tenant active and bumps the routing epoch.
	epoch := cs.table.Load().Epoch() + 1
	url := fmt.Sprintf("%s/v1/admin/handoff/activate%s&epoch=%d", target.Addr, fedQ, epoch)
	if err := cs.post(url); err != nil {
		// A failed POST does not mean a failed activation: opening the
		// shipped shards can outlive PeerTimeout, and the ack may have
		// been lost after the target committed. Reverting to active
		// while the target serves at a higher epoch would fork the
		// federation's history, so settle the outcome first — activation
		// is idempotent, making both the retry and the question safe.
		committed, known := s.verifyActivation(t, target, url)
		switch {
		case committed:
			// The move happened; fall through to the commit path.
		case known:
			// The target is verifiably not active: the all-or-nothing
			// abort is safe.
			abort()
			return 0, nil, fmt.Errorf("activate: %w", err)
		default:
			// Target unreachable: the outcome is unknowable right now.
			// The tenant stays in sending — redirecting at the target,
			// which is correct whichever way it resolves — and a
			// background resolver completes or rolls back the move once
			// the target answers again.
			go s.resolveHandoff(t, target, epoch, url)
			return 0, nil, fmt.Errorf("activate outcome unknown (target unreachable), resolving in background: %w", err)
		}
	}
	got := s.finishHandoffSource(t, target, epoch)
	return got, moved, nil
}

// finishHandoffSource commits the source half of a handoff whose
// activation is known to have succeeded: release local state — the
// schedulers' histories and the store's WAL handles, so a later handoff
// back (or standby duty) starts from disk — adopt the override and
// gossip the new table. The sending→remote CAS makes it single-entry,
// so the synchronous path and the background resolver cannot both
// commit.
func (s *Server) finishHandoffSource(t *tenant, target cluster.Member, epoch uint64) uint64 {
	cs := s.cluster
	if !t.state.CompareAndSwap(tenantSending, tenantRemote) {
		return cs.table.Load().Epoch()
	}
	s.releaseTenantState(t)
	got := cs.applyOverride(t.name, target.ID, epoch)
	t.ownerHint.Store(nil)
	cs.handoffsOut.Inc()
	cs.gossip()
	s.log.Info("handoff complete", "federation", t.name, "target", target.ID, "epoch", got)
	return got
}

// releaseTenantState drops the scheduler's in-memory histories and
// closes the tenant's WAL handles; the next activation (handoff back,
// takeover) rebuilds from disk.
func (s *Server) releaseTenantState(t *tenant) {
	if hd, ok := t.sched.(historyDropper); ok {
		hd.DropHistories()
	}
	if t.store != nil {
		if err := t.store.Close(); err != nil {
			s.log.Warn("closing store on ownership release", "federation", t.name, "error", err.Error())
		}
	}
}

// verifyActivation settles an activate POST that errored: committed
// reports whether the target activated, known whether the outcome could
// be determined at all. The target's /v1/cluster placement state is the
// source of truth; while it reads "receiving" (activation may still be
// running behind a lost ack) the idempotent activate is retried.
func (s *Server) verifyActivation(t *tenant, target cluster.Member, activateURL string) (committed, known bool) {
	cs := s.cluster
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		st, err := s.peerTenantState(target, t.name)
		if err == nil {
			switch st {
			case "active":
				return true, true
			case "remote":
				return false, true
			}
		}
		if err := cs.post(activateURL); err == nil {
			return true, true
		}
	}
	return false, false
}

// peerTenantState asks a peer which ownership state its tenant for fed
// is in, via the placement section of its /v1/cluster table.
func (s *Server) peerTenantState(peer cluster.Member, fed string) (string, error) {
	resp, err := s.cluster.client.Get(peer.Addr + "/v1/cluster")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", peer.Addr, resp.Status)
	}
	var cr ClusterResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&cr); err != nil {
		return "", err
	}
	p, ok := cr.Placements[fed]
	if !ok {
		return "", fmt.Errorf("peer %s does not host federation %q", peer.ID, fed)
	}
	return p.State, nil
}

// resolveHandoff settles a handoff whose activation outcome could not
// be determined synchronously. The tenant stays in sending — new
// requests chase the target, which is correct in both outcomes — until
// the target answers: active commits the source half, remote rolls the
// tenant back to serving here. Runs until resolution or server
// shutdown.
func (s *Server) resolveHandoff(t *tenant, target cluster.Member, epoch uint64, activateURL string) {
	cs := s.cluster
	tick := time.NewTicker(cs.cfg.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-tick.C:
		}
		if t.state.Load() != tenantSending {
			return // resolved by another path
		}
		st, err := s.peerTenantState(target, t.name)
		if err != nil {
			continue
		}
		switch st {
		case "active":
			s.finishHandoffSource(t, target, epoch)
			return
		case "remote":
			if t.state.CompareAndSwap(tenantSending, tenantActive) {
				t.ownerHint.Store(nil)
				s.log.Warn("handoff rolled back, target never activated",
					"federation", t.name, "target", target.ID)
			}
			return
		default:
			// Still receiving: the activation may have been lost before
			// reaching the target — nudge the idempotent activate.
			if cs.post(activateURL) == nil {
				s.finishHandoffSource(t, target, epoch)
				return
			}
		}
	}
}

// drainInflight waits for the tenant's in-flight requests to finish;
// by the time it returns, every request routed before the state flip
// has completed (or ctx expired).
func (t *tenant) drainInflight(ctx context.Context) error {
	for t.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d requests still in flight: %w", t.inflight.Load(), ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
	return nil
}

func sortedQueries(t *tenant) []tpch.QueryID {
	qs := make([]tpch.QueryID, 0, len(t.queries))
	for q := range t.queries {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return qs
}

// ---------------------------------------------------------------------
// Handoff: target side
// ---------------------------------------------------------------------

// handleHandoffPrepare flips the tenant remote→receiving: from here
// until activate (or abort), this node holds the federation's requests
// instead of redirecting them back at the sending source.
func (s *Server) handleHandoffPrepare(w http.ResponseWriter, r *http.Request) {
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	if !t.beginReceiving() {
		writeError(w, http.StatusConflict, "federation %q is %s here", fed, tenantStateName(t.state.Load()))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "receiving"})
}

// handleHandoffActivate commits an inbound handoff: open the shipped
// state, start serving, bump the routing epoch. Idempotent — a source
// whose ack was lost (activation can outlive its PeerTimeout) re-sends
// the activate, and a tenant already activated by this handoff answers
// with the committed epoch instead of an error. activateMu single-
// flights the commit, so the retry waits for the first attempt rather
// than racing a second open of the same shards.
func (s *Server) handleHandoffActivate(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad epoch: %v", err)
		return
	}
	t.activateMu.Lock()
	defer t.activateMu.Unlock()
	switch st := t.state.Load(); st {
	case tenantActive:
		// Retried commit: re-assert the override at the requested epoch
		// and report success again.
		got := cs.applyOverride(fed, cs.self.ID, epoch)
		writeJSON(w, http.StatusOK, map[string]uint64{"epoch": got})
		return
	case tenantReceiving:
	default:
		writeError(w, http.StatusConflict, "federation %q is %s, not receiving", fed, tenantStateName(st))
		return
	}
	if err := s.activateTenant(t); err != nil {
		t.finishReceiving(tenantRemote)
		writeError(w, http.StatusInternalServerError, "activating %q: %v", fed, err)
		return
	}
	got := cs.applyOverride(fed, cs.self.ID, epoch)
	t.finishReceiving(tenantActive)
	cs.handoffsIn.Inc()
	cs.gossip()
	s.log.Info("handoff received", "federation", fed, "epoch", got)
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": got})
}

// handleHandoffAbort rolls the target back to remote after a failed
// handoff; held requests chase the (reverted) owner. Serialized with
// activation: an abort racing an in-flight activate waits, then finds
// the tenant active and leaves it alone — the source only aborts after
// verifying the target did not activate.
func (s *Server) handleHandoffAbort(w http.ResponseWriter, r *http.Request) {
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	t.activateMu.Lock()
	if t.state.Load() == tenantReceiving {
		t.finishReceiving(tenantRemote)
	}
	t.activateMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "aborted"})
}

// handleTakeover (POST /v1/admin/takeover?federation=) promotes this
// node to fed's owner from locally replicated state — the operator's
// recovery path after the owner died: promote with no eligibility gate
// and no fence.
func (s *Server) handleTakeover(w http.ResponseWriter, r *http.Request) {
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	epoch, err := s.promote(t, nil)
	switch {
	case errors.Is(err, errNotRemote):
		writeError(w, http.StatusConflict, "federation %q is %s here", fed, tenantStateName(t.state.Load()))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "takeover of %q: %v", fed, err)
		return
	}
	recovered := make(map[string]int, len(t.queries))
	for _, q := range sortedQueries(t) {
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

// activateTenant materializes a cold tenant's serving state: open each
// query's history (recovering whatever the store holds — the replica a
// handoff or an owner's stream wrote, or nothing) and bootstrap any
// shortfall below the spec's target, exactly like a warm boot.
func (s *Server) activateTenant(t *tenant) error {
	qs := sortedQueries(t)
	if op, ok := t.sched.(historyOpener); ok {
		for _, q := range qs {
			if _, err := op.OpenHistory(q); err != nil {
				return err
			}
		}
	}
	if bs, ok := t.sched.(bootstrapper); ok {
		for _, q := range qs {
			h := t.sched.History(q)
			if h == nil {
				continue
			}
			if need := t.bootstrap - h.Len(); need > 0 {
				if err := bs.Bootstrap(q, need); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Table reconciliation
// ---------------------------------------------------------------------

// reconcileTenants squares local tenant state with the current routing
// table: any tenant this node is serving (active) that the table maps
// to another member is demoted. This is the convergence path for a
// former owner that slept through a takeover or handoff — a restarted
// node boots at epoch 1 with its ring-owned tenants active, and without
// this step it would keep serving stale state forever after gossip
// hands it the newer table. Called after every table adoption.
func (s *Server) reconcileTenants() {
	cs := s.cluster
	tab := cs.table.Load()
	for name, t := range s.tenants {
		owner := tab.Owner(name)
		if owner.ID == cs.self.ID || t.state.Load() != tenantActive {
			continue
		}
		// Demotion drains and does peer-free file work; keep it off the
		// gossip handler's request path.
		go s.demoteStaleOwner(t, owner)
	}
}

// demoteStaleOwner stops serving a federation the routing table has
// moved elsewhere: redirect new requests at the adopted owner, drain
// the in-flight ones, then release local state so the next activation
// here starts from disk. The active→sending CAS makes it single-entry
// and yields to a concurrent operator-driven handoff.
func (s *Server) demoteStaleOwner(t *tenant, owner cluster.Member) {
	cs := s.cluster
	if !t.state.CompareAndSwap(tenantActive, tenantSending) {
		return
	}
	if cs.table.Load().Owner(t.name).ID == cs.self.ID {
		// The table moved back underneath the CAS; keep serving.
		t.state.Store(tenantActive)
		return
	}
	t.ownerHint.Store(&owner)
	ctx, cancel := context.WithTimeout(s.lifeCtx, cs.cfg.PeerTimeout)
	err := t.drainInflight(ctx)
	cancel()
	if err != nil {
		// Stragglers get errors from the closed store rather than this
		// node silently forking the federation's history.
		s.log.Warn("demotion drain incomplete", "federation", t.name, "error", err.Error())
	}
	if rep := cs.repl[t.name]; rep != nil {
		rep.DisarmAll()
	}
	s.releaseTenantState(t)
	t.state.Store(tenantRemote)
	t.ownerHint.Store(nil)
	s.log.Warn("demoted stale ownership", "federation", t.name,
		"owner", owner.ID, "epoch", cs.table.Load().Epoch())
}

// bootstrapRoutes exchanges routing tables with peers at boot, so a
// restarted node (whose table starts from the persisted copy, or epoch
// 1 without one) learns about ownership moves it slept through before
// serving stale state for long, even if no further mutation ever
// gossips. Best-effort: retries until at least one peer answers, then
// leaves freshness to gossip-on-mutation and the reconcile pass. Peers
// are tried in a per-node shuffled order with jittered retries, so a
// whole cluster restarting at once fans its first exchanges out instead
// of hammering whichever member sorts first.
func (s *Server) bootstrapRoutes() {
	cs := s.cluster
	h := fnv.New64a()
	h.Write([]byte(cs.self.ID))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for {
		tab := cs.table.Load()
		body, _ := json.Marshal(RouteUpdate{Epoch: tab.Epoch(), Overrides: tab.Overrides()})
		members := append([]cluster.Member(nil), tab.Ring().Members()...)
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		reached := false
		for _, m := range members {
			if m.ID == cs.self.ID {
				continue
			}
			var peer RouteUpdate
			if err := cs.postJSON(m.Addr+"/v1/admin/route", body, &peer); err != nil {
				continue
			}
			reached = true
			if cs.adoptTable(peer.Epoch, peer.Overrides) {
				s.reconcileTenants()
			}
		}
		if reached {
			return
		}
		select {
		case <-s.lifeCtx.Done():
			return
		case <-time.After(cs.cfg.SyncInterval/2 + time.Duration(rng.Int63n(int64(cs.cfg.SyncInterval)))):
		}
	}
}

// ---------------------------------------------------------------------
// Standby sync loop
// ---------------------------------------------------------------------

// syncLoop keeps every owned tenant's standby armed: any shard whose
// replication stream is not currently streaming (never armed, or
// degraded by a standby outage) gets a fresh full sync — hold at the
// cut, ship, release — after which the synchronous frame stream
// resumes. A standby that keeps failing (down, hung, partitioned) is
// retried under exponential backoff — up to 2^5 intervals between
// attempts — so a dead peer costs one slow ship per backoff window
// instead of one per tick. Holding a stream no longer blocks acks (see
// cluster.Replicator.Hold), so even an in-flight failed attempt never
// stalls the write path. Runs until the server's lifetime context ends.
func (s *Server) syncLoop() {
	cs := s.cluster
	defer close(cs.syncDone)
	tick := time.NewTicker(cs.cfg.SyncInterval)
	defer tick.Stop()
	// Per-tenant backoff state, touched only by this goroutine.
	skip := make(map[string]int)
	fails := make(map[string]int)
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-tick.C:
			for _, t := range s.tenants {
				if skip[t.name] > 0 {
					skip[t.name]--
					continue
				}
				if s.syncTenant(t) {
					fails[t.name] = 0
					continue
				}
				fails[t.name]++
				n := fails[t.name]
				if n > 5 {
					n = 5
				}
				skip[t.name] = 1 << n
			}
		}
	}
}

// syncTenant full-syncs every non-streaming shard of one owned tenant
// to its standby. Returns false when any shard's sync failed, so the
// loop can back off instead of re-attempting every tick.
func (s *Server) syncTenant(t *tenant) bool {
	cs := s.cluster
	rep := cs.repl[t.name]
	if rep == nil || t.store == nil || t.state.Load() != tenantActive {
		return true
	}
	standby, ok := cs.table.Load().Standby(t.name)
	if !ok {
		return true
	}
	healthy := true
	for _, q := range sortedQueries(t) {
		shard := q.String()
		if rep.Streaming(shard) {
			continue
		}
		// Hold the stream at the cut: frames appended while the shard is
		// in flight buffer locally and ship only after the standby acks
		// the state they extend. Acks do not wait on a held stream, so a
		// hung standby slows only this sync.
		err := cs.streams[t.name].shipShard(standby, t.store, shard, replSync, func(next uint64) { rep.Hold(shard, next) })
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
