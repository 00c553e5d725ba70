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
// exchange tables after mutations (POST /v1/admin/route) and retry every
// SyncInterval until a round reaches every peer, and the higher epoch
// always wins, so a stale node converges on the first exchange that
// reaches it — within about one SyncInterval once a partition heals.
// Until then a stale owner keeps serving, and acks writes, at its old
// epoch.
//
// Each ownership step has one seam: a tenant moves through
// beginReceiving/finishReceiving inbound and beginSending/finishSending
// outbound (batch.go); a node starts serving through becomeOwner and
// stops through stopServing; a table is installed only by commit and
// swapped with peers only by exchange; and every goroutine the control
// plane starts is spawned under the server's lifetime, which Drain ends
// and waits out.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
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
	// local durability rather than failing writes, and the sync loop
	// re-arms it with a fresh full sync once the standby answers again.
	Replicate bool
	// SyncInterval is the cadence of the standby sync loop and of the
	// routing-table exchange's retries (jittered ½–1½ intervals apart,
	// until every peer has the node's table); default 2s.
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

	// rebalanceKick wakes the rebalance loop (buffered 1: a kick during
	// a rebalance coalesces into one more pass; nil without
	// AutoRebalance); rebalancing is 1 while a pass runs.
	rebalanceKick chan struct{}
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

// commit is the one place a routing table is installed: next maps the
// table in force to its successor (nil keeps it), and every table
// installed is persisted before commit returns. Persistence failures are
// logged and counted, not propagated: the table is already in force and
// on its way to the peers; losing the disk copy only weakens the next
// restart, it cannot be allowed to wedge routing now. Returns the table
// in force afterwards and whether next installed it.
func (cs *clusterState) commit(next func(cur *cluster.Table) *cluster.Table) (*cluster.Table, bool) {
	cs.commitMu.Lock()
	defer cs.commitMu.Unlock()
	cur := cs.table.Load()
	tab := next(cur)
	if tab == nil {
		return cur, false
	}
	cs.table.Store(tab)
	if cs.routes == nil {
		return tab, true
	}
	// srv (and with it the counter) is nil only for a table driven
	// without a server, as the unit tests do.
	if err := cs.routes.Commit(tab.Epoch(), tab.Overrides()); err != nil && cs.srv != nil {
		cs.routePersistErrs.Inc()
		cs.srv.log.Warn("persisting routing table failed", "epoch", tab.Epoch(), "error", err.Error())
	}
	return tab, true
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
// speak ErrorResponse JSON), and a 2xx body is decoded into out when out
// is non-nil.
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
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
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

// applyOverride pins fed to node in the routing table, bumping the
// epoch to at least minEpoch, and returns the resulting epoch.
// Idempotent: a table that already places fed on node at minEpoch or
// later (the move's exchange beat the local apply) is left untouched, so
// one ownership change bumps the cluster-wide epoch exactly once.
func (cs *clusterState) applyOverride(fed, node string, minEpoch uint64) uint64 {
	tab, _ := cs.commit(func(cur *cluster.Table) *cluster.Table {
		if cur.Epoch() >= minEpoch && cur.Owner(fed).ID == node {
			return nil
		}
		next, ok := cur.WithOverride(fed, node)
		if !ok {
			return nil // unknown member: keep the table
		}
		return next.WithEpochAtLeast(minEpoch)
	})
	return tab.Epoch()
}

// adoptTable installs a gossiped table if its epoch is newer. Epochs
// are minted as local-epoch+1 with no global allocator, so two
// concurrent ownership changes (of different federations, or of the
// same one after a partition) can produce distinct tables at the SAME
// epoch; adopting one at an equal epoch merges the override sets
// deterministically — union, lexicographically smaller member ID on a
// per-federation conflict, so every node computes the same table
// regardless of arrival order — and bumps past both inputs so the
// merged table wins everywhere. Server.adopt squares local tenant state
// with the adopted table.
func (cs *clusterState) adoptTable(epoch uint64, overrides map[string]string) bool {
	_, adopted := cs.commit(func(cur *cluster.Table) *cluster.Table {
		switch {
		case epoch < cur.Epoch():
			return nil
		case epoch > cur.Epoch():
			return cur.WithOverrides(epoch, overrides)
		case overridesEqual(cur.Overrides(), overrides):
			return nil
		}
		return cur.WithOverrides(epoch+1, mergeOverrides(cur.Overrides(), overrides))
	})
	return adopted
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
// of tables in either order agree; the losing owner is demoted when it
// adopts the merged table.
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

// exchange swaps routing tables with every other member at once and
// reports whether every one answered. Each swap is bidirectional: the
// peer adopts this node's table if it is newer and answers with
// whichever table survived on its side, which is adopted here in turn —
// so one round converges both ends, whichever was stale.
func (s *Server) exchange() bool {
	cs := s.cluster
	tab := cs.table.Load()
	body, _ := json.Marshal(RouteUpdate{Epoch: tab.Epoch(), Overrides: tab.Overrides()})
	var (
		wg     sync.WaitGroup
		missed atomic.Bool
	)
	for _, m := range tab.Ring().Members() {
		if m.ID == cs.self.ID {
			continue
		}
		wg.Add(1)
		if !s.spawn(func() {
			defer wg.Done()
			var peer RouteUpdate
			if cs.call(s.lifeCtx, http.MethodPost, m.Addr+"/v1/admin/route", body, &peer) != nil {
				missed.Store(true)
				return
			}
			s.adopt(peer.Epoch, peer.Overrides)
		}) {
			wg.Done()
			missed.Store(true)
		}
	}
	wg.Wait()
	return !missed.Load()
}

// exchangeLoop exchanges tables at boot and then, every SyncInterval for
// the server's lifetime, whenever no round has carried the table in
// force to every peer yet: a restarted node's, a commit's whose own
// exchange a partition dropped, one adopted and not yet passed on. So a
// node a partition kept from a takeover learns of it about one interval
// after the heal, and agreeing tables cost nothing. The waits are
// jittered per node: a cluster restarting at once is not in lockstep.
// The generator is a PCG, 16 bytes for the server's lifetime.
func (s *Server) exchangeLoop() {
	h := fnv.New64a()
	h.Write([]byte(s.cluster.self.ID))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0))
	every := s.cluster.cfg.SyncInterval
	var carried *cluster.Table // the last table a round carried to every peer
	for {
		if tab := s.cluster.table.Load(); tab != carried && s.exchange() {
			carried = tab
		}
		if !s.pause(every/2 + time.Duration(rng.Int64N(int64(every)))) {
			return
		}
	}
}

// adopt installs a peer's table (adoptTable) and squares local tenant
// state with it: a tenant this node still serves that the table places
// elsewhere is demoted. This is the convergence path for a former owner
// that slept through a takeover or handoff — a restarted node boots at
// epoch 1 with its ring-owned tenants active, and without this step it
// would keep serving stale state after a peer hands it the newer table.
func (s *Server) adopt(epoch uint64, overrides map[string]string) {
	cs := s.cluster
	if !cs.adoptTable(epoch, overrides) {
		return
	}
	tab := cs.table.Load()
	for _, t := range s.tenants {
		if owner := tab.Owner(t.name); owner.ID != cs.self.ID && t.state.Load() == tenantActive {
			// Demotion drains: keep it off the exchange's request path.
			s.spawn(func() { s.demote(t, owner) })
		}
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
		"Routing-table commits whose durable write failed (in-memory routing unaffected).")
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
// target, the owner's address plus path, into sc.location — and the
// returned status stands. A submission has already registered in
// t.inflight, so an outbound handoff's drain cannot miss it.
func (s *Server) routeTenant(ctx context.Context, t *tenant, sc *serveScratch, path string, resp *bytes.Buffer) int {
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
			return s.writeRedirect(t, sc, path, resp)
		}
	}
}

// writeRedirect renders the 307 through the request's scratch: the
// owner's URL for path goes in sc.location (the handlers copy it to the
// Location header), the body says why — the bytes writeErrorBuf would
// render, with no formatting or encoder of its own.
func (s *Server) writeRedirect(t *tenant, sc *serveScratch, path string, resp *bytes.Buffer) int {
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
	sc.text = append(append(sc.text[:0], owner.Addr...), path...)
	sc.location = reuse(sc.location, sc.text)
	sc.text = strconv.AppendQuote(append(sc.text[:0], "federation "...), t.name)
	sc.text = append(append(append(sc.text, " is served by "...), owner.ID...), " (epoch "...)
	sc.text = append(strconv.AppendUint(sc.text, tab.Epoch(), 10), ')')
	sc.errResp.Error = reuse(sc.errResp.Error, sc.text)
	sc.dst.w = resp
	_ = sc.enc.Encode(&sc.errResp)
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

// handleRoute (POST /v1/admin/route) is a peer's half of exchange: adopt
// the body's table if its epoch beats ours, answer with whichever table
// survived.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var upd RouteUpdate
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, "bad route update: %v", err)
		return
	}
	s.adopt(upd.Epoch, upd.Overrides)
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
		if errors.Is(err, errHandoffConflict) {
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

// errHandoffConflict refuses a handoff of a federation that is not this
// node's to send now: another handoff of it is in flight, or it is not
// active here. handleHandoff answers it with 409.
var errHandoffConflict = errors.New("conflict")

// handoffTenant runs the source half of a live migration: prepare the
// target (it now holds requests), begin sending (new requests now chase
// the target), drain in-flight ones, stream every shard, activate the
// target under a bumped epoch, then stop serving here. The target must
// be holding before the source starts redirecting: until prepare lands
// it is still remote and answers 307 back at this node, and a client
// bounced between the two at loopback speed burns its whole redirect
// budget inside one scheduling delay. Any failure before activation
// rolls back — the handoff is all-or-nothing. Activation itself is the
// one step whose failure cannot be taken at face value (the target may
// have committed and the ack been lost), so an activate error is settled
// by asking the target before anything is reverted.
func (s *Server) handoffTenant(ctx context.Context, t *tenant, target cluster.Member) (uint64, map[string]int, error) {
	cs := s.cluster
	if !t.sendMu.TryLock() {
		return 0, nil, fmt.Errorf("%w: another handoff of this federation is in flight", errHandoffConflict)
	}
	defer t.sendMu.Unlock()
	if st := t.state.Load(); st != tenantActive {
		return 0, nil, fmt.Errorf("%w: federation is %s here, not active", errHandoffConflict, tenantStateName(st))
	}
	s.log.Info("handoff started", "federation", t.name, "target", target.ID)

	if err := cs.post(handoffStep(target, "prepare", url.Values{"federation": {t.name}})); err != nil {
		return 0, nil, fmt.Errorf("prepare: %w", err)
	}
	if !t.beginSending(target) {
		// A stale-owner demotion began sending first.
		s.abortTarget(t, target)
		return 0, nil, fmt.Errorf("%w: federation is %s here, not active", errHandoffConflict, tenantStateName(t.state.Load()))
	}
	fail := func(err error) (uint64, map[string]int, error) {
		s.rollback(t, target)
		return 0, nil, err
	}

	// Drain: requests that loaded state before the flip finish under
	// the old owner; everything after redirects. The inflight counter
	// is incremented before the state load, so a zero here proves no
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
			if err := st.shipShard(target, t.store, q.String(), replHandoff, nil); err != nil {
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
	epoch := cs.table.Load().Epoch() + 1
	activate := handoffStep(target, "activate", url.Values{"federation": {t.name}, "epoch": {strconv.FormatUint(epoch, 10)}})
	if err := cs.post(activate); err != nil {
		// A failed POST does not mean a failed activation: opening the
		// shipped shards can outlive PeerTimeout, and the ack may have
		// been lost after the target committed. Reverting to active
		// while the target serves at a higher epoch would fork the
		// federation's history, so settle the outcome first.
		got, known := s.settle(t, target, epoch, activate)
		for try := 1; !known && try < 3 && s.pause(250*time.Millisecond); try++ {
			got, known = s.settle(t, target, epoch, activate)
		}
		switch {
		case !known:
			// Target unreachable: the tenant stays sending and settle
			// runs every SyncInterval, for the server's lifetime, until
			// the target answers.
			s.spawn(func() {
				for settled := false; !settled && s.pause(cs.cfg.SyncInterval); {
					_, settled = s.settle(t, target, epoch, activate)
				}
			})
			return 0, nil, fmt.Errorf("activate outcome unknown (target unreachable), resolving in background: %w", err)
		case got == 0:
			return 0, nil, fmt.Errorf("activate: %w", err)
		}
		return got, moved, nil
	}
	return s.commitHandoff(t, target, epoch), moved, nil
}

// settle resolves, once, a handoff whose activate POST failed: ask the
// target which state its tenant is in, then act. Active commits the
// source half; remote rolls it back; still receiving — or no answer —
// re-sends the activate, idempotent on the target, and commits if it
// lands. Returns the committed epoch (0: rolled back) and false while
// the outcome is unknown, the tenant still sending: redirecting at the
// target is right whichever way the move ends.
func (s *Server) settle(t *tenant, target cluster.Member, epoch uint64, activateURL string) (uint64, bool) {
	var cr ClusterResponse
	state := ""
	if s.cluster.call(s.lifeCtx, http.MethodGet, target.Addr+"/v1/cluster", nil, &cr) == nil {
		state = cr.Placements[t.name].State
	}
	if state == "remote" {
		s.rollback(t, target)
		s.log.Warn("handoff rolled back, target never activated", "federation", t.name, "target", target.ID)
		return 0, true
	}
	if state == "active" || s.cluster.post(activateURL) == nil {
		return s.commitHandoff(t, target, epoch), true
	}
	return 0, false
}

// commitHandoff commits the source half of a handoff the target has
// activated: pin the federation on the target, stop serving it here and
// exchange tables. Returns the committed epoch.
func (s *Server) commitHandoff(t *tenant, target cluster.Member, epoch uint64) uint64 {
	cs := s.cluster
	got := cs.applyOverride(t.name, target.ID, epoch)
	s.stopServing(t)
	cs.handoffsOut.Inc()
	s.spawn(func() { s.exchange() })
	s.log.Info("handoff complete", "federation", t.name, "target", target.ID, "epoch", got)
	return got
}

// rollback undoes an outbound handoff that did not commit: serve here
// again, then tell the target to let go of the requests it holds — in
// that order, because released they chase the table back to this node.
func (s *Server) rollback(t *tenant, target cluster.Member) {
	t.finishSending(false)
	s.abortTarget(t, target)
}

// abortTarget tells a prepared target to go back to remote.
func (s *Server) abortTarget(t *tenant, target cluster.Member) {
	if err := s.cluster.post(handoffStep(target, "abort", url.Values{"federation": {t.name}})); err != nil {
		s.log.Warn("handoff abort failed", "federation", t.name, "error", err.Error())
	}
}

// handoffStep is the URL of one handoff control step on target, its
// query escaped: a federation name may hold any character.
func handoffStep(target cluster.Member, step string, query url.Values) string {
	return target.Addr + "/v1/admin/handoff/" + step + "?" + query.Encode()
}

// stopServing is the one way a node stops serving a federation it has
// begun sending: drain the in-flight requests, stop replicating, release
// local state, then finishSending.
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
	t.finishSending(true)
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
	if err := activateTenant(t, nil); err != nil {
		t.finishReceiving(tenantRemote)
		writeError(w, http.StatusInternalServerError, "activating %q: %v", fed, err)
		return
	}
	got := s.becomeOwner(t, epoch, cs.handoffsIn)
	s.log.Info("handoff received", "federation", fed, "epoch", got)
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": got})
}

// becomeOwner is the tail of every inbound ownership change, a handoff's
// activation or a promotion: pin the federation on this node at epoch or
// later, serve the requests held meanwhile, count the change and
// exchange tables. Returns the committed epoch.
func (s *Server) becomeOwner(t *tenant, epoch uint64, counter *metrics.Counter) uint64 {
	cs := s.cluster
	got := cs.applyOverride(t.name, cs.self.ID, epoch)
	t.finishReceiving(tenantActive)
	counter.Inc()
	s.spawn(func() { s.exchange() })
	return got
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
// the tenants this node owns, on a handoff's target and on a promoted
// standby. It opens each query's history in the spec's order
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

// demote stops serving a federation an adopted table has moved
// elsewhere: redirect new requests at the new owner, then stopServing.
// beginSending makes it single-entry and yields to a handoff already
// sending.
func (s *Server) demote(t *tenant, owner cluster.Member) {
	if !t.beginSending(owner) {
		return
	}
	if s.cluster.owns(t.name) {
		t.finishSending(false) // the table moved back meanwhile; keep serving
		return
	}
	s.stopServing(t)
	s.log.Warn("demoted stale ownership", "federation", t.name,
		"owner", owner.ID, "epoch", s.cluster.table.Load().Epoch())
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
	for _, q := range t.queries {
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
