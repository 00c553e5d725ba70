package server

// The control loop: everything a clustered node does on its own, rather
// than on a request, is a step one goroutine's passes choose. Per
// federation, the pass gathers what the tenant and the probes say and
// cluster.Loop's Next — the pure decision — picks at most one step; the
// pass launches it, and Done folds its outcome back in. Steps that talk
// to a peer run in goroutines of their own, one per federation and one
// exchange per peer at a time, so a hung peer delays only them.

import (
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// peerLoop is the loop's memory of one peer: whether an exchange with it
// runs, and the last table one carried there.
type peerLoop struct {
	busy    atomic.Bool
	carried atomic.Pointer[cluster.Table]
}

// controlLoop is the node's control goroutine: a pass at boot, then one
// every SyncInterval, jittered ½–1½ intervals apart per node so a
// cluster restarting at once is not in lockstep (a PCG, 16 bytes for the
// server's lifetime), and one on every kick.
func (s *Server) controlLoop() {
	cs := s.cluster
	h := fnv.New64a()
	h.Write([]byte(cs.self.ID))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0))
	every := cs.cfg.SyncInterval
	names := slices.Sorted(maps.Keys(s.tenants))
	feds := make([]struct {
		busy atomic.Bool
		loop cluster.Loop
	}, len(names))
	peers := make([]peerLoop, len(cs.peers))
	var verdicts cluster.Verdicts
	if cs.detector != nil {
		verdicts = cs.detector
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-timer.C:
			timer.Reset(every/2 + time.Duration(rng.Int64N(int64(every))))
		case <-cs.kick:
		}
		quiet := cs.steps.Load() == 0
		cs.peerMu.Lock()
		reports := maps.Clone(cs.peerRepl) // probePeer replaces a peer's report whole
		cs.peerMu.Unlock()
		now, transitions := time.Now(), cs.transitions.Load()
		for i, name := range names {
			t, f := s.tenants[name], &feds[i]
			// The table is loaded after the state, so a step never acts
			// on a table older than the state it was chosen for.
			state := t.state.Load()
			tab, a, repl := cs.table.Load(), t.unsettled.Load(), cs.replHealth(t)
			step, m := f.loop.Next(tab, cs.self.ID, verdicts, cluster.Facts{
				Fed: name, State: state, InFlight: f.busy.Load(), Unsettled: a != nil,
				ArmNeeded: repl == "arming" || repl == "degraded", Replicating: cs.replicating(),
				Reports: reports, Rebalance: cs.cfg.AutoRebalance, Transitions: transitions,
			}, now)
			switch step {
			case cluster.StepDemote:
				s.launch(&f.busy, func() { s.demote(t) })
			case cluster.StepSettle:
				s.launch(&f.busy, func() {
					if _, known := s.settle(t, a); known {
						t.unsettled.Store(nil)
					}
				})
			case cluster.StepPromote:
				s.launch(&f.busy, func() { f.loop.Done(step, s.promote(t, m) == nil, time.Now(), every) })
			case cluster.StepBlock:
				cs.autoBlocked.Inc()
				s.log.Warn("auto-promotion blocked", "federation", name, "owner", m.ID,
					"replication", reports[m.ID][name], "hint", "operator can still POST /v1/admin/takeover")
			case cluster.StepRebalance:
				s.launch(&f.busy, func() { s.rebalance(t, m) })
			case cluster.StepArm:
				s.launch(&f.busy, func() { f.loop.Done(step, s.syncTenant(t, m), time.Now(), every) })
			}
		}
		tab := cs.table.Load()
		for i, m := range cs.peers {
			if p := &peers[i]; tab != p.carried.Load() && !p.busy.Load() {
				// A table committed while one exchange runs goes out in
				// the next, before the step ends: no pass waits on it.
				s.launch(&p.busy, func() {
					for next := tab; next != p.carried.Load(); next = cs.table.Load() {
						if s.exchange(m) != nil {
							return
						}
						p.carried.Store(next)
					}
				})
			}
		}
		if quiet {
			cs.passes.Add(1)
		}
	}
}

// launch runs one step in a goroutine under the server's lifetime, busy
// set and the step counted in cs.steps until it returns — for good once
// Drain has begun, which starts nothing.
func (s *Server) launch(busy *atomic.Bool, run func()) {
	busy.Store(true)
	s.cluster.steps.Add(1)
	s.spawn(func() {
		defer s.cluster.steps.Add(-1)
		defer busy.Store(false)
		run()
	})
}

// kickLoop wakes the control loop for a pass now; a kick while one is
// pending coalesces, a pass looking at everything anyway.
func (cs *clusterState) kickLoop() {
	select {
	case cs.kick <- struct{}{}:
	default:
	}
}
