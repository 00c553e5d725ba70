package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"
)

// verdicts is a detector's judgment for the tests: one status per
// member of testMembers(3), indexed by the digit of its ID; unknown IDs
// read as up, as *Detector's do.
type verdicts [3]PeerStatus

func (v verdicts) Status(id string) PeerStatus {
	if i := int(id[len(id)-1] - '1'); len(id) == 2 && id[0] == 'n' && i >= 0 && i < len(v) {
		return v[i]
	}
	return PeerUp
}

func (v verdicts) AnySuspect() bool {
	for _, s := range v {
		if s == PeerSuspect {
			return true
		}
	}
	return false
}

// TestNextStepInvariants runs Next over the decision's real inputs —
// every tenant state, every placement of one federation on a 3-member
// table seen from every member, every verdict of the two peers (and no
// detector), every combination of the facts and every memory the loop
// can hold — and checks the rules the control plane's safety rests on,
// plus which step each gap gets and which member it targets.
func TestNextStepInvariants(t *testing.T) {
	ring, err := NewRing(testMembers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	const fed = "paper"
	boot := NewTable(ring)
	tables := []*Table{boot}
	for _, m := range ring.Members() {
		tables = append(tables, boot.Pin(fed, m.ID, 2)) // the ring owner's pin too
	}
	// What each owner last reported: degraded, or streaming.
	reports := make(map[string][2]map[string]map[string]string)
	for _, m := range ring.Members() {
		reports[m.ID] = [2]map[string]map[string]string{{m.ID: {fed: "degraded"}}, {m.ID: {fed: "streaming"}}}
	}
	now := time.Unix(1000, 0)
	counts := make(map[Step]int)
	for _, tab := range tables {
		owner, ringOwner := tab.Owner(fed), ring.Owner(fed)
		standby, _ := tab.Standby(fed)
		for si, self := range ring.Members() {
			var judged []Verdicts
			for _, a := range []PeerStatus{PeerUp, PeerSuspect, PeerDown} {
				for _, b := range []PeerStatus{PeerUp, PeerSuspect, PeerDown} {
					var v verdicts // self reads as up
					v[(si+1)%3], v[(si+2)%3] = a, b
					judged = append(judged, v)
				}
			}
			judged = append(judged, nil)
			for _, verdict := range judged {
				status := func(id string) (PeerStatus, bool) {
					if verdict == nil {
						return PeerUp, false
					}
					return verdict.Status(id), true
				}
				st, judgedOwner := status(owner.ID)
				ownerDown := judgedOwner && st == PeerDown
				st, judgedRing := status(ringOwner.ID)
				ringOwnerUp := judgedRing && st == PeerUp
				anySuspect := verdict != nil && verdict.AnySuspect()
				for state := Active; state <= Sending; state++ {
					for bits := 0; bits < 1<<10; bits++ {
						bit := func(i int) bool { return bits&(1<<i) != 0 }
						x := Facts{
							Fed: fed, State: state, InFlight: bit(0), Unsettled: bit(1),
							ArmNeeded: bit(2), Replicating: bit(3), Rebalance: bit(4),
							Reports: reports[owner.ID][0],
						}
						if bit(5) {
							x.Reports = reports[owner.ID][1]
						}
						f := Loop{tries: 2 * int(bits>>6&1), seen: 1}
						if bit(7) {
							x.Transitions = 1 // no transition since the attempts were handed out
						}
						if bit(8) {
							f.dealt = owner.ID
						}
						if bit(9) {
							f.retryAt = now.Add(time.Second) // inside the backoff
						}
						before := f
						got, target := f.Next(tab, self.ID, verdict, x, now)
						counts[got]++
						active, remote := state == Active, state == Remote
						placedHere, standbyHere := owner.ID == self.ID, standby.ID == self.ID
						dealtWith := ownerDown && before.dealt == owner.ID
						eligible := !x.Replicating || x.Reports[owner.ID][fed] == "streaming"
						backedOff := !now.Before(before.retryAt)
						due := before.tries > 0 || x.Rebalance && before.seen != x.Transitions
						for _, rule := range []struct {
							broken bool
							what   string
						}{
							{x.InFlight && (got != StepNone || f != before), "a step, or a memory change, for a federation with one in flight"},
							{got == StepPromote && !(remote && standbyHere && ownerDown && eligible), "promote unless remote, standby here, owner down and eligible"},
							{got == StepPromote && (dealtWith || !backedOff), "promote over a death already dealt with, or inside the backoff"},
							{got == StepBlock && !(remote && standbyHere && ownerDown && !eligible && !dealtWith), "block unless an ineligible promotion is due, once per death"},
							{got == StepDemote && !(active && !placedHere), "demote unless active and placed elsewhere"},
							{got == StepRebalance && (anySuspect || !due), "rebalance while a peer is suspect or without a due transition"},
							{got == StepRebalance && !(active && placedHere && ringOwner.ID != self.ID && ringOwnerUp), "rebalance unless active here, off the ring and its ring owner up"},
							{got == StepArm && !(active && placedHere && x.ArmNeeded && backedOff), "arm unless owned here, not streaming and backed off"},
							{got == StepSettle && !x.Unsettled, "settle without an unknown handoff"},
							{!x.InFlight && active && !placedHere && got != StepDemote, "no demotion of a stale owner"},
							{!x.InFlight && x.Unsettled && !(active && !placedHere) && got != StepSettle, "no settle of an unknown handoff"},
							{!x.InFlight && !ownerDown && f.dealt != "", "a death still dealt with after the owner was seen alive"},
							{(got == StepDemote || got == StepPromote || got == StepBlock) && target != owner, "a demotion, promotion or block not aimed at the owner"},
							{got == StepRebalance && target != ringOwner, "a rebalance not aimed at the ring owner"},
							{got == StepArm && target != standby, "an arm not aimed at the standby"},
						} {
							if rule.broken {
								t.Fatalf("Next(table %d %v, self %s, verdicts %v, %+v, memory %+v) = %d → %s: %s",
									tab.Epoch(), tab.Overrides(), self.ID, verdict, x, before, got, target.ID, rule.what)
							}
						}
					}
				}
			}
		}
	}
	// Next returns one step, so a federation never gets two in a pass;
	// every step is reachable.
	for k := StepNone; k <= StepArm; k++ {
		if counts[k] == 0 {
			t.Errorf("step %d is never chosen", k)
		}
	}
}

// TestLoopMemoryBounded drives one federation's memory through every
// sequence of up to six passes over an alphabet of eight — each pass a
// situation, a wait since the last one and, for a launched promotion or
// arm, its outcome — against a model of what the memory promises across
// passes: a blocked promotion is counted once per owner death; after n
// failed arms or promotions in a row the next waits 2ⁿ intervals, at
// most 2⁵; a detector transition buys at most three rebalance attempts,
// on the passes right after it; and the death dealt with clears once the
// owner is seen alive.
func TestLoopMemoryBounded(t *testing.T) {
	ring, err := NewRing(testMembers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	const fed, every = "paper", time.Second
	boot := NewTable(ring)
	ringOwner := ring.Owner(fed)
	self, _ := boot.Standby(fed) // the ring owner's standby
	mine := boot.Pin(fed, self.ID, 0)
	var ownerDown verdicts
	ownerDown[ringOwner.ID[1]-'1'] = PeerDown
	reports := func(health string) map[string]map[string]string {
		return map[string]map[string]string{ringOwner.ID: {fed: health}}
	}
	type pass struct {
		name       string
		tab        *Table
		verdict    verdicts
		facts      Facts
		transition bool          // the detector moved since the last pass
		wait       time.Duration // since the last pass
		ok         bool          // a launched promotion's or arm's outcome
	}
	stale := Facts{State: Remote, Reports: reports("degraded")}
	eligible := Facts{State: Remote, Reports: reports("streaming")}
	served := Facts{State: Active}
	alphabet := []pass{
		{name: "owner down, replica stale", tab: boot, verdict: ownerDown, facts: stale, wait: every},
		{name: "owner down, promotion fails late", tab: boot, verdict: ownerDown, facts: eligible, wait: 64 * every},
		{name: "owner down, promotion fails soon", tab: boot, verdict: ownerDown, facts: eligible, wait: every},
		{name: "owner down, promotion succeeds", tab: boot, verdict: ownerDown, facts: eligible, wait: 64 * every, ok: true},
		{name: "owner up", tab: boot, facts: eligible, wait: every},
		{name: "transition, served off the ring", tab: mine, facts: served, transition: true, wait: every},
		{name: "served off the ring", tab: mine, facts: served, wait: every},
		{name: "arm fails late, ring owner down", tab: mine, verdict: ownerDown, facts: Facts{State: Active, ArmNeeded: true}, wait: 64 * every},
	}
	type world struct {
		f           Loop
		now         time.Time
		transitions uint64
		dealt       bool      // this death was promoted over or blocked
		blocks      int       // blocks in this death
		fails       int       // failed promotions or arms in a row
		retryAt     time.Time // when the backoff the model expects ends
		rebalances  int       // attempts since the last transition
		run         bool      // the last pass rebalanced
		trace       [6]string
	}
	var walk func(w world, depth int)
	walk = func(parent world, depth int) {
		for _, p := range alphabet {
			w := parent
			w.trace[depth] = p.name
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("after %q: "+format, append([]any{w.trace[:depth+1]}, args...)...)
			}
			w.now = w.now.Add(p.wait)
			if p.transition {
				w.transitions++
				w.rebalances = 0
			}
			x := p.facts
			x.Fed, x.Replicating, x.Rebalance, x.Transitions = fed, true, true, w.transitions
			got, _ := w.f.Next(p.tab, self.ID, p.verdict, x, w.now)

			down := p.verdict.Status(p.tab.Owner(fed).ID) == PeerDown
			if !down {
				w.dealt, w.blocks = false, 0 // a later death is new
				if w.f.dealt != "" {
					fail("dealt = %q with the owner seen alive", w.f.dealt)
				}
			}
			backedOff := !w.now.Before(w.retryAt)
			want := StepNone
			switch {
			case down && x.State == Remote && !w.dealt && x.Reports[ringOwner.ID][fed] != "streaming":
				want = StepBlock
			case down && x.State == Remote && !w.dealt && backedOff:
				want = StepPromote
			case x.ArmNeeded && backedOff:
				want = StepArm
			case p.transition, p.tab == mine && p.verdict.Status(ringOwner.ID) == PeerUp && w.run && w.rebalances < 3:
				want = StepRebalance
			}
			if got != want {
				fail("Next = %d, want %d", got, want)
			}
			switch got {
			case StepBlock:
				if w.blocks++; w.blocks > 1 {
					fail("a second block in one death")
				}
				w.dealt = true
			case StepPromote, StepArm:
				w.f.Done(got, p.ok, w.now, every)
				if p.ok {
					w.fails, w.dealt = 0, true
					break
				}
				w.fails++
				w.retryAt = w.now.Add(every << min(w.fails, 5))
				if !w.f.retryAt.Equal(w.retryAt) {
					fail("after %d failures the retry is at %v, want %v", w.fails, w.f.retryAt, w.retryAt)
				}
			case StepRebalance:
				if w.rebalances++; w.rebalances > 3 {
					fail("a fourth rebalance attempt for one transition")
				}
			}
			w.run = got == StepRebalance
			if depth+1 < len(w.trace) {
				walk(w, depth+1)
			}
		}
	}
	walk(world{now: time.Unix(1000, 0)}, 0)
}

// TestDecisionIsPure parses the decision's source and fails on any
// import outside the allowlist and on any call that reads the clock or
// waits: the decision must run the same under a simulator's clock.
func TestDecisionIsPure(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "reconcile.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"time": true, "sort": true, "slices": true, "maps": true}
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("reconcile.go imports %s", path)
		}
	}
	banned := map[string]bool{"Now": true, "Since": true, "After": true, "Sleep": true, "NewTimer": true}
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && banned[sel.Sel.Name] {
				t.Errorf("reconcile.go calls time.%s", sel.Sel.Name)
			}
		}
		if g, ok := n.(*ast.GoStmt); ok {
			t.Errorf("reconcile.go starts a goroutine at offset %d", g.Go)
		}
		return true
	})
}
