package server

// Auto-failover: the failure detector probes every peer's
// /v1/cluster/health, and a confirmed death (DownAfter consecutive
// misses) promotes this node's standby federations through the same
// activation path an operator takeover uses — gated by an epoch fence
// so two nodes observing the same death cannot silently both commit,
// and by the dead owner's last replication-health report so a standby
// never promotes from a replica the owner knew was stale. The
// rebalancer rides the same detector: when membership settles after a
// change, federations drift back to their ring-computed owners one
// live handoff at a time.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
)

// initDetector builds the failure detector over this node's peers. The
// probe doubles as the replication-health exchange: each successful
// probe caches the peer's per-federation report, which is what decides
// auto-promotion eligibility after that peer dies.
func (s *Server) initDetector() {
	cs := s.cluster
	peers := make([]cluster.Member, 0, len(cs.cfg.Peers))
	for _, m := range cs.cfg.Peers {
		if m.ID != cs.self.ID {
			peers = append(peers, m)
		}
	}
	d := cluster.NewDetector(cluster.DetectorConfig{
		ProbeInterval: cs.cfg.ProbeInterval,
		SuspectAfter:  cs.cfg.SuspectAfter,
		DownAfter:     cs.cfg.DownAfter,
	}, peers, s.probePeer)
	d.OnProbe = func(peer cluster.Member, rtt time.Duration, err error) {
		if cs.probeSeconds != nil {
			cs.probeSeconds.With(peer.ID).Observe(rtt.Seconds())
		}
	}
	d.OnTransition = func(peer cluster.Member, from, to cluster.PeerStatus) {
		s.log.Warn("peer status changed", "peer", peer.ID,
			"from", from.String(), "to", to.String())
		if to == cluster.PeerDown {
			s.spawn(func() { s.autoFailover(peer) })
		}
		// Any transition can change what the rebalancer should do:
		// up→suspect pauses it, down→up means a returned owner wants its
		// federations back, suspect→down unblocks a paused pass.
		s.kickRebalance()
	}
	cs.detector = d
}

// probePeer is one failure-detector probe: GET the peer's cluster
// health, and on success cache its replication report.
func (s *Server) probePeer(ctx context.Context, peer cluster.Member) error {
	cs := s.cluster
	var health ClusterHealthResponse
	if err := cs.call(ctx, http.MethodGet, peer.Addr+"/v1/cluster/health", nil, &health); err != nil {
		return err
	}
	cs.peerMu.Lock()
	cs.peerRepl[peer.ID] = health.Replication
	cs.peerMu.Unlock()
	return nil
}

// replHealth classifies one federation's outbound replication on this
// node: "off" when replication is not configured, "degraded" when any
// shard's stream fell back to local-only durability, "arming" while any
// shard awaits its initial (or re-arm) full sync, else "streaming".
func (cs *clusterState) replHealth(t *tenant) string {
	rep := cs.repl[t.name]
	if rep == nil || t.store == nil || !cs.replicating() {
		return "off"
	}
	health := "streaming"
	for _, q := range t.queries {
		shard := q.String()
		if rep.Degraded(shard) {
			return "degraded"
		}
		if !rep.Streaming(shard) {
			health = "arming"
		}
	}
	return health
}

// handleClusterHealth (GET /v1/cluster/health) is the failure
// detector's probe target and the operator's per-node health view: the
// node's routing epoch, each actively served federation's replication
// health, and (when the detector runs here) this node's judgment of its
// peers.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	resp := ClusterHealthResponse{
		Node:        cs.self.ID,
		Epoch:       cs.table.Load().Epoch(),
		Replication: make(map[string]string),
	}
	for name, t := range s.tenants {
		if t.state.Load() == tenantActive {
			resp.Replication[name] = cs.replHealth(t)
		}
	}
	if cs.detector != nil {
		resp.Peers = make(map[string]PeerHealthJSON)
		for id, h := range cs.detector.Snapshot() {
			resp.Peers[id] = PeerHealthJSON{
				Status: h.Status.String(),
				Misses: h.Misses,
				RTTMS:  float64(h.RTT) / float64(time.Millisecond),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// autoFailover promotes this node's standby federations after the
// detector confirmed their owner dead, one at a time; each is gated and
// fenced independently.
func (s *Server) autoFailover(dead cluster.Member) {
	cs := s.cluster
	for _, name := range slices.Sorted(maps.Keys(s.tenants)) {
		tab := cs.table.Load()
		if standby, ok := tab.Standby(name); tab.Owner(name).ID != dead.ID || !ok || standby.ID != cs.self.ID {
			continue
		}
		// Eligibility: when replication is on, promote only from a replica
		// the dead owner last reported streaming. A degraded (or never
		// reported) stream means this standby's copy may be missing acked
		// writes; promoting would serve a silently truncated history,
		// which is worse than staying down until an operator decides.
		cs.peerMu.Lock()
		health := cs.peerRepl[dead.ID][name]
		cs.peerMu.Unlock()
		if cs.replicating() && health != "streaming" {
			cs.autoBlocked.Inc()
			s.log.Warn("auto-promotion blocked",
				"federation", name, "owner", dead.ID,
				"replication", health,
				"hint", "operator can still POST /v1/admin/takeover")
			continue
		}
		s.promote(s.tenants[name], dead)
	}
}

// promote is the detector's auto-promotion of t after its owner, dead,
// died: the activation an operator takeover runs, fenced on the routing
// epoch observed before it. If the table moved while shipped state was
// being opened — another node promoted first and its exchange arrived,
// or the owner turned out alive and moved the tenant — the activation
// fails and releases what it opened, rather than committing a second
// owner on top of a table it no longer understands. Two nodes fencing
// on the SAME observed epoch can still both commit (neither sees the
// other's move until an exchange); they mint equal epochs, and the
// commutative equal-epoch merge in adoptTable settles on one owner
// while demote stands the loser down — the documented settle path,
// reached only through a window the fence already made narrow.
func (s *Server) promote(t *tenant, dead cluster.Member) {
	cs := s.cluster
	observed := cs.table.Load().Epoch()
	epoch, err := s.activate(t, 0, func() error {
		if tab := cs.table.Load(); tab.Epoch() != observed || tab.Owner(t.name).ID != dead.ID {
			return fmt.Errorf("routing table moved during activation (fence %d, epoch %d, owner %s)",
				observed, tab.Epoch(), tab.Owner(t.name).ID)
		}
		return nil
	}, cs.takeovers)
	switch {
	case err == nil:
		cs.autoTakeovers.Inc()
		s.log.Warn("auto-promoted federation after owner death",
			"federation", t.name, "owner", dead.ID, "epoch", epoch)
	case !errors.Is(err, errConflict): // not when someone else got here first
		s.log.Warn("auto-promotion failed", "federation", t.name, "error", err.Error())
	}
}

// kickRebalance wakes the rebalance loop; a kick while one is queued
// coalesces (the loop recomputes the full plan every pass anyway).
func (s *Server) kickRebalance() {
	select {
	case s.cluster.rebalanceKick <- struct{}{}:
	default:
	}
}

// rebalanceLoop is the single-flighted rebalancer: each kick (a
// detector transition) triggers at most one pass, and a pass moves one
// tenant at a time. Only the current table owner of a federation offers
// it back, so at most ~2/N of the key space — the consistent-hash
// movement bound for one membership change — is ever in flight.
func (s *Server) rebalanceLoop() {
	cs := s.cluster
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-cs.rebalanceKick:
		}
		// An unsettled member set (a peer suspect) means the ring's
		// verdict may be about to change, and moving tenants under it
		// risks moving them twice (or into a grave).
		for cs.detector.AnySuspect() {
			if !s.pause(cs.cfg.ProbeInterval) {
				return
			}
		}
		s.rebalanceOnce()
	}
}

// rebalanceOnce hands every federation this node serves away from its
// ring-computed placement back to its (live) ring owner, one at a time
// with per-tenant retry and backoff. Failures leave the tenant where it
// is — serving here is correct, just unbalanced — for the next kick.
func (s *Server) rebalanceOnce() {
	cs := s.cluster
	cs.rebalancing.Store(true)
	defer cs.rebalancing.Store(false)
	for _, name := range slices.Sorted(maps.Keys(s.tenants)) {
		t := s.tenants[name]
		tab := cs.table.Load()
		ringOwner := tab.Ring().Owner(name)
		if ringOwner.ID == cs.self.ID || tab.Owner(name).ID != cs.self.ID {
			continue
		}
		if t.state.Load() != tenantActive {
			continue
		}
		if cs.detector.Status(ringOwner.ID) != cluster.PeerUp {
			continue
		}
		for attempt := 0; attempt < 3; attempt++ {
			if attempt > 0 && !s.pause(cs.cfg.ProbeInterval<<attempt) {
				return
			}
			ctx, cancel := context.WithTimeout(s.lifeCtx, cs.cfg.PeerTimeout)
			_, _, err := s.handoffTenant(ctx, t, ringOwner)
			cancel()
			if err == nil {
				cs.rebalances.Inc()
				s.log.Info("rebalanced federation to ring owner",
					"federation", name, "target", ringOwner.ID)
				break
			}
			s.log.Warn("rebalance handoff failed", "federation", name,
				"target", ringOwner.ID, "attempt", attempt+1, "error", err.Error())
			if s.lifeCtx.Err() != nil || t.state.Load() != tenantActive {
				break
			}
		}
	}
}
