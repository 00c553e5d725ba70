package server

// Auto-failover: the failure detector probes every peer's
// /v1/cluster/health, and while it judges an owner dead (DownAfter
// consecutive misses) the control loop promotes this node's standby
// federations through the same activation path an operator takeover
// uses — gated by an epoch fence so two nodes observing the same death
// cannot silently both commit, and by the dead owner's last
// replication-health report so a standby never promotes from a replica
// the owner knew was stale. Rebalancing rides the same detector: after
// each transition, once membership settles, federations drift back to
// their ring-computed owners by live handoff.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// initDetector builds the failure detector over this node's peers. The
// probe doubles as the replication-health exchange: each successful
// probe caches the peer's per-federation report, which is what decides
// auto-promotion eligibility after that peer dies.
func (s *Server) initDetector() {
	cs := s.cluster
	d := cluster.NewDetector(cluster.DetectorConfig{
		ProbeInterval: cs.cfg.ProbeInterval,
		SuspectAfter:  cs.cfg.SuspectAfter,
		DownAfter:     cs.cfg.DownAfter,
	}, cs.peers, s.probePeer)
	d.OnProbe = func(peer cluster.Member, rtt time.Duration, err error) {
		cs.probeSeconds.With(peer.ID).Observe(rtt.Seconds())
	}
	d.OnTransition = func(peer cluster.Member, from, to cluster.PeerStatus) {
		s.log.Warn("peer status changed", "peer", peer.ID,
			"from", from.String(), "to", to.String())
		// Any transition can change what the control loop should do: a
		// death promotes the dead owner's standbys, and every transition
		// makes a rebalance due (up→suspect pauses it, down→up means a
		// returned owner wants its federations back).
		cs.transitions.Add(1)
		cs.kickLoop()
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
		if t.state.Load() == cluster.Active {
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

// promote is the control loop's auto-promotion of t while its owner,
// dead, is down: the activation an operator takeover runs, fenced on the
// routing epoch observed before it. If the table moved while shipped state was
// being opened — another node promoted first and its exchange arrived,
// or the owner turned out alive and moved the tenant — the activation
// fails and releases what it opened, rather than committing a second
// owner on top of a table it no longer understands. Two nodes fencing
// on the SAME observed epoch can still both commit (neither sees the
// other's move until an exchange); they mint equal epochs, and the
// commutative equal-epoch merge in Table.Adopt settles on one owner
// while demote stands the loser down — the documented settle path,
// reached only through a window the fence already made narrow. A failure
// is returned for the loop to retry under its backoff.
func (s *Server) promote(t *tenant, dead cluster.Member) error {
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
	return err
}

// rebalance is the control loop's step that hands t, served here off
// its ring placement, back to its live ring owner. A failure leaves the
// tenant where it is — serving here is correct, just unbalanced — for
// the loop's next attempt.
func (s *Server) rebalance(t *tenant, ringOwner cluster.Member) {
	cs := s.cluster
	cs.rebalancing.Add(1)
	defer cs.rebalancing.Add(-1)
	ctx, cancel := context.WithTimeout(s.lifeCtx, cs.cfg.PeerTimeout)
	defer cancel()
	if _, _, err := s.handoffTenant(ctx, t, ringOwner); err != nil {
		s.log.Warn("rebalance handoff failed", "federation", t.name,
			"target", ringOwner.ID, "error", err.Error())
		return
	}
	cs.rebalances.Inc()
	s.log.Info("rebalanced federation to ring owner", "federation", t.name, "target", ringOwner.ID)
}
