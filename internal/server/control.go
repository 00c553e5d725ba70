package server

// The control loop: everything a clustered node does on its own, rather
// than on a request, is a step one goroutine's passes choose. Per
// federation, nextStep — a pure function of what the table, the detector
// and the tenant say — picks at most one step to close the gap. Steps
// that talk to a peer run in goroutines of their own, one per federation
// and one exchange per peer at a time, so a hung peer delays only them.

import (
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// step is what nextStep chooses for one federation.
type step uint8

const (
	stepNone      step = iota
	stepDemote         // stop serving what the table places elsewhere
	stepSettle         // resolve a handoff whose activate outcome is unknown
	stepPromote        // take over from the dead owner
	stepBlock          // refuse that, once per death: the replica may be stale
	stepRebalance      // hand the federation back to its live ring owner
	stepArm            // full-sync the shards whose standby stream is down
)

// view is one federation as a pass sees it on this node.
type view struct {
	state       int32 // the tenant's ownership state here
	placedHere  bool  // the table names this node the owner
	unsettled   bool  // a handoff's activate outcome is unknown
	standbyHere bool  // the table names this node the standby
	ownerDown   bool  // the detector judges the table's owner down
	dealtWith   bool  // the owner's death was promoted over or blocked
	eligible    bool  // nothing replicates, or the owner last reported streaming
	rebalance   bool  // a detector transition left rebalance attempts
	anySuspect  bool  // the detector suspects a peer
	offRing     bool  // the ring places the federation on another node
	ringOwnerUp bool  // the detector judges that node up
	armNeeded   bool  // a shard's standby stream is not streaming
	backedOff   bool  // the retry backoff has elapsed
	inFlight    bool  // a step for the federation is still running
}

// nextStep decides one federation's next step from its view alone.
func nextStep(v view) step {
	switch {
	case v.inFlight:
	case v.state == tenantActive && !v.placedHere:
		return stepDemote
	case v.unsettled:
		return stepSettle
	case v.state == tenantRemote && v.standbyHere && v.ownerDown && !v.dealtWith:
		if !v.eligible {
			return stepBlock
		}
		if v.backedOff {
			return stepPromote
		}
	case v.state != tenantActive:
	case v.rebalance && !v.anySuspect && v.offRing && v.ringOwnerUp:
		return stepRebalance
	case v.armNeeded && v.backedOff:
		return stepArm
	}
	return stepNone
}

// fedLoop is the loop's memory of one federation. While busy, only the
// step the loop started touches fails, retryAt and dealt.
type fedLoop struct {
	busy    atomic.Bool
	fails   int       // failed arms or promotions in a row, at most 5
	retryAt time.Time // no arm or promotion before this
	dealt   string    // the dead owner promoted over or blocked; "" once alive
	seen    uint64    // the detector transitions rebalance attempts were handed out for
	tries   int       // rebalance attempts left since then
}

// record folds a step's outcome into the backoff: after n failures in a
// row the next attempt waits 2ⁿ intervals, at most 2⁵.
func (f *fedLoop) record(ok bool, every time.Duration) {
	if ok {
		f.fails = 0
		return
	}
	f.fails = min(f.fails+1, 5)
	f.retryAt = time.Now().Add(every << f.fails)
}

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
	feds := make([]fedLoop, len(names))
	peers := make([]peerLoop, len(cs.peers))
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
		d := cs.detector
		suspect := d != nil && d.AnySuspect()
		now, transitions := time.Now(), cs.transitions.Load()
		for i, name := range names {
			t, f := s.tenants[name], &feds[i]
			v := view{inFlight: f.busy.Load(), anySuspect: suspect}
			// The table is loaded after the state, so a step never acts
			// on a table older than the state it was chosen for.
			v.state = t.state.Load()
			tab := cs.table.Load()
			owner, ringOwner := tab.Owner(name), tab.Ring().Owner(name)
			standby, _ := tab.Standby(name)
			var health string
			if !v.inFlight {
				repl := cs.replHealth(t)
				v.placedHere = owner.ID == cs.self.ID
				v.unsettled = t.unsettled.Load() != nil
				v.standbyHere = standby.ID == cs.self.ID
				v.offRing = ringOwner.ID != cs.self.ID
				v.armNeeded = repl == "arming" || repl == "degraded"
				v.backedOff = !now.Before(f.retryAt)
				if d != nil {
					v.ownerDown = d.Status(owner.ID) == cluster.PeerDown
					v.ringOwnerUp = d.Status(ringOwner.ID) == cluster.PeerUp
					cs.peerMu.Lock()
					health = cs.peerRepl[owner.ID][name]
					cs.peerMu.Unlock()
					v.eligible = !cs.replicating() || health == "streaming"
				}
				if !v.ownerDown {
					f.dealt = "" // alive, or not the owner: a later death is new
				}
				v.dealtWith = f.dealt == owner.ID
				if cs.cfg.AutoRebalance && !suspect && f.seen != transitions {
					f.seen, f.tries = transitions, 3 // handoff attempts per transition
				}
				v.rebalance = f.tries > 0
			}
			next := nextStep(v)
			if next != stepRebalance && !v.inFlight {
				// A transition's attempts go to what its first pass
				// finds off the ring.
				f.tries = 0
			}
			switch next {
			case stepDemote:
				s.launch(&f.busy, func() { s.demote(t) })
			case stepSettle:
				a := t.unsettled.Load()
				s.launch(&f.busy, func() {
					if _, known := s.settle(t, a); known {
						t.unsettled.Store(nil)
					}
				})
			case stepPromote:
				s.launch(&f.busy, func() {
					err := s.promote(t, owner)
					if err == nil {
						f.dealt = owner.ID
					}
					f.record(err == nil, every)
				})
			case stepBlock:
				f.dealt = owner.ID
				cs.autoBlocked.Inc()
				s.log.Warn("auto-promotion blocked", "federation", name, "owner", owner.ID,
					"replication", health, "hint", "operator can still POST /v1/admin/takeover")
			case stepRebalance:
				f.tries--
				s.launch(&f.busy, func() { s.rebalance(t, ringOwner) })
			case stepArm:
				s.launch(&f.busy, func() { f.record(s.syncTenant(t, standby), every) })
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
