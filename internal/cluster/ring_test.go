package cluster

import (
	"fmt"
	"testing"
)

func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("http://10.0.0.%d:8642", i+1)}
	}
	return ms
}

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("federation-%04d", i)
	}
	return out
}

// Determinism: every node that knows the same member set must compute
// the same placement, regardless of the order members were listed in.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	ms := testMembers(5)
	a, err := NewRing(ms, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Same set, reversed declaration order.
	rev := make([]Member, len(ms))
	for i, m := range ms {
		rev[len(ms)-1-i] = m
	}
	b, err := NewRing(rev, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, fed := range tenantNames(500) {
		if ao, bo := a.Owner(fed), b.Owner(fed); ao != bo {
			t.Fatalf("placement of %q differs across builds: %v vs %v", fed, ao, bo)
		}
	}
}

// Minimal movement: adding or removing one of N members must move at
// most ~2/N of the keys (consistent hashing's defining property; the
// factor 2 leaves slack for vnode variance).
func TestRingMinimalMovement(t *testing.T) {
	const nKeys = 2000
	keys := tenantNames(nKeys)
	for _, n := range []int{3, 5, 8} {
		ms := testMembers(n)
		before, err := NewRing(ms, 128)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := NewRing(append(testMembers(n), Member{ID: "n999", Addr: "x"}), 128)
		if err != nil {
			t.Fatal(err)
		}
		shrunk, err := NewRing(ms[:n-1], 128)
		if err != nil {
			t.Fatal(err)
		}
		var movedJoin, movedLeave int
		for _, k := range keys {
			o := before.Owner(k)
			if grown.Owner(k) != o {
				movedJoin++
			}
			if shrunk.Owner(k) != o {
				movedLeave++
			}
		}
		// Join: only keys captured by the new member move; expected
		// fraction 1/(n+1), allowed 2/(n+1).
		if limit := 2 * nKeys / (n + 1); movedJoin > limit {
			t.Errorf("n=%d: join moved %d/%d keys, limit %d", n, movedJoin, nKeys, limit)
		}
		// Leave: only the departed member's keys move; expected 1/n,
		// allowed 2/n.
		if limit := 2 * nKeys / n; movedLeave > limit {
			t.Errorf("n=%d: leave moved %d/%d keys, limit %d", n, movedLeave, nKeys, limit)
		}
		// And every key moved by the join must now live on the joiner.
		for _, k := range keys {
			if g := grown.Owner(k); g != before.Owner(k) && g.ID != "n999" {
				t.Fatalf("join moved %q to %v, not the new member", k, g)
			}
		}
	}
}

// Placement balance: with 128 vnodes no member should own a wildly
// disproportionate share. This is a sanity bound (3x fair share), not a
// tight one — the guarantee of interest is movement, not perfection.
func TestRingRoughBalance(t *testing.T) {
	r, err := NewRing(testMembers(4), 128)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const nKeys = 4000
	for _, k := range tenantNames(nKeys) {
		counts[r.Owner(k).ID]++
	}
	for id, c := range counts {
		if c > 3*nKeys/4 {
			t.Errorf("member %s owns %d/%d keys", id, c, nKeys)
		}
		if c == 0 {
			t.Errorf("member %s owns nothing", id)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]Member{{ID: ""}}, 0); err == nil {
		t.Error("empty member ID accepted")
	}
	if _, err := NewRing([]Member{{ID: "a"}, {ID: "a"}}, 0); err == nil {
		t.Error("duplicate member ID accepted")
	}
}

func TestNextDistinct(t *testing.T) {
	r, err := NewRing(testMembers(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range tenantNames(200) {
		owner := r.Owner(k)
		standby, ok := r.NextDistinct(k, owner.ID)
		if !ok {
			t.Fatalf("no standby for %q in a 3-member ring", k)
		}
		if standby.ID == owner.ID {
			t.Fatalf("standby for %q equals owner %s", k, owner.ID)
		}
	}
	solo, err := NewRing(testMembers(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := solo.NextDistinct("x", "n1"); ok {
		t.Error("single-member ring produced a standby")
	}
}

func TestTableOverridesAndEpochs(t *testing.T) {
	r, err := NewRing(testMembers(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	t0 := NewTable(r)
	if t0.Epoch() != 1 {
		t.Fatalf("boot epoch = %d, want 1", t0.Epoch())
	}
	fed := "paper"
	ringOwner := t0.Owner(fed)
	// Move fed to a different member.
	var target string
	for _, m := range r.Members() {
		if m.ID != ringOwner.ID {
			target = m.ID
			break
		}
	}
	t1 := t0.Pin(fed, target, 0)
	if t1 == nil {
		t.Fatal("pin to a known member rejected")
	}
	if t1.Epoch() != 2 {
		t.Fatalf("epoch after pin = %d, want 2", t1.Epoch())
	}
	if got := t1.Owner(fed).ID; got != target {
		t.Fatalf("pinned owner = %s, want %s", got, target)
	}
	// Original table untouched (copy-on-write).
	if got := t0.Owner(fed); got != ringOwner {
		t.Fatalf("t0 mutated: owner now %v", got)
	}
	// Standby of a pinned tenant differs from the new owner.
	if sb, ok := t1.Standby(fed); !ok || sb.ID == target {
		t.Fatalf("standby %v invalid for pinned owner %s", sb, target)
	}
	// Unknown member rejected.
	if t1.Pin(fed, "nope", 0) != nil {
		t.Error("pin to unknown member accepted")
	}
	// A fence never goes backwards.
	if t1.Fence(1) != nil {
		t.Error("Fence(1) lowered the epoch")
	}
	if t2 := t1.Fence(9); t2.Epoch() != 9 || t2.Owner(fed).ID != target {
		t.Errorf("Fence(9) = epoch %d owner %s", t2.Epoch(), t2.Owner(fed).ID)
	}
	// Round-trip the override set through the wire form.
	t3 := t0.Adopt(t1.Epoch(), t1.Overrides())
	if t3.Owner(fed).ID != target || t3.Epoch() != t1.Epoch() {
		t.Errorf("Adopt round-trip: epoch %d owner %s", t3.Epoch(), t3.Owner(fed).ID)
	}
}

// The routing lookup is on every request path of every non-owner and
// the owner alike; it must not allocate.
func TestOwnerLookupZeroAllocs(t *testing.T) {
	r, err := NewRing(testMembers(5), 128)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(r).Pin("federation-0003", "n1", 0)
	keys := tenantNames(16)
	var sink Member
	allocs := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			sink = tab.Owner(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("Table.Owner allocates %.1f times per 16 lookups, want 0", allocs)
	}
	_ = sink
}
