package cluster

// The reconcile decision: what a clustered node does for one federation
// on its own, rather than on a request. Per pass, Next reads the table,
// the detector's verdicts and the node's facts and picks at most one
// step to close the gap; Done folds the step's outcome back into the
// federation's memory. Events in, one action out: the decision reads no
// clock, starts nothing and does no I/O, so a simulator can drive it.

import "time"

// A federation's ownership state on a node, as Facts.State reports it.
// The zero value is active, so a standalone server never leaves it.
const (
	Active    int32 = iota // the node serves the federation
	Remote                 // another node does; its requests get 307
	Receiving              // an activation is opening state here; requests wait
	Sending                // an outbound move or a demotion is under way; requests wait
)

// Step is what Next chooses for one federation.
type Step uint8

const (
	StepNone      Step = iota
	StepDemote         // stop serving what the table places elsewhere
	StepSettle         // resolve a handoff whose activate outcome is unknown
	StepPromote        // take over from the dead owner
	StepBlock          // refuse that, once per death: the replica may be stale
	StepRebalance      // hand the federation back to its live ring owner
	StepArm            // full-sync the shards whose standby stream is down
)

// Verdicts is a failure detector's judgment of the members, as
// *Detector gives it.
type Verdicts interface {
	Status(id string) PeerStatus
	AnySuspect() bool
}

// Facts is what a node knows of one federation beyond its table and
// the detector.
type Facts struct {
	Fed         string
	State       int32 // Active, Remote, Receiving or Sending
	InFlight    bool  // a step for it is still running
	Unsettled   bool  // a handoff's activate outcome is unknown
	ArmNeeded   bool  // a shard's standby stream is not streaming
	Replicating bool  // the cluster ships frames to standbys
	// Reports is each peer's last replication report: member ID →
	// federation → "streaming", "arming", "degraded" or "off".
	Reports     map[string]map[string]string
	Rebalance   bool   // rebalancing is on
	Transitions uint64 // the detector's transitions so far, each making a rebalance due
}

// Loop is the control loop's memory of one federation. While a step it
// chose runs, the caller passes InFlight and only that step's Done
// touches the memory.
type Loop struct {
	fails     int       // failed arms or promotions in a row, at most 5
	retryAt   time.Time // no arm or promotion before this
	dealt     string    // the dead owner promoted over or blocked; "" once alive
	promoting string    // the owner the running promotion is over
	seen      uint64    // the transitions rebalance attempts were handed out for
	tries     int       // rebalance attempts left since then
}

// Next decides the federation's next step on the node self and returns
// it with the member it targets: the owner to demote toward, promote
// over or block on, the ring owner to rebalance to, the standby to arm.
// verdicts is nil when no detector runs.
func (f *Loop) Next(tab *Table, self string, verdicts Verdicts, x Facts, now time.Time) (Step, Member) {
	if x.InFlight {
		return StepNone, Member{}
	}
	owner, ringOwner := tab.Owner(x.Fed), tab.Ring().Owner(x.Fed)
	standby, _ := tab.Standby(x.Fed)
	suspect := verdicts != nil && verdicts.AnySuspect()
	ownerDown := verdicts != nil && verdicts.Status(owner.ID) == PeerDown
	if !ownerDown {
		f.dealt = "" // alive, or not the owner: a later death is new
	}
	if x.Rebalance && !suspect && f.seen != x.Transitions {
		f.seen, f.tries = x.Transitions, 3 // handoff attempts per transition
	}
	// A transition's attempts go to what its first pass finds off the ring.
	tries := f.tries
	f.tries = 0
	backedOff := !now.Before(f.retryAt)
	switch {
	case x.State == Active && owner.ID != self:
		return StepDemote, owner
	case x.Unsettled:
		return StepSettle, Member{}
	case x.State == Remote && standby.ID == self && ownerDown && f.dealt != owner.ID:
		if x.Replicating && x.Reports[owner.ID][x.Fed] != "streaming" {
			f.dealt = owner.ID
			return StepBlock, owner
		}
		if backedOff {
			f.promoting = owner.ID
			return StepPromote, owner
		}
	case x.State != Active:
	case tries > 0 && !suspect && ringOwner.ID != self && verdicts != nil && verdicts.Status(ringOwner.ID) == PeerUp:
		f.tries = tries - 1
		return StepRebalance, ringOwner
	case x.ArmNeeded && backedOff:
		return StepArm, standby
	}
	return StepNone, Member{}
}

// Done folds the outcome of a promotion or an arm into the memory, at
// now: after n failures in a row the next attempt waits 2ⁿ intervals of
// every, at most 2⁵.
func (f *Loop) Done(s Step, ok bool, now time.Time, every time.Duration) {
	if ok {
		if s == StepPromote {
			f.dealt = f.promoting
		}
		f.fails = 0
		return
	}
	f.fails = min(f.fails+1, 5)
	f.retryAt = now.Add(every << f.fails)
}
