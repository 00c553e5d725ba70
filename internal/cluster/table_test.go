package cluster

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"testing"
)

// universe is the small world the algebra is checked over: three
// members and two federations, each unpinned or pinned to any member.
type universe struct {
	ring *Ring
	feds [2]string
}

func newUniverse(t testing.TB) universe {
	ring, err := NewRing(testMembers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	return universe{ring: ring, feds: [2]string{"f1", "f2"}}
}

// table decodes code — epoch·16 + 4·pin(f1) + pin(f2), a pin 0 for
// none or 1 + a member's index — into a table.
func (u universe) table(code int) *Table {
	t := &Table{ring: u.ring, epoch: uint64(code / 16)}
	for i, fed := range u.feds {
		if pin := code >> (2 - 2*i) & 3; pin > 0 {
			if t.overrides == nil {
				t.overrides = make(map[string]int32)
			}
			t.overrides[fed] = int32(pin - 1)
		}
	}
	return t
}

// code is table's inverse.
func (u universe) code(t *Table) int {
	code := int(t.epoch) * 16
	for i, fed := range u.feds {
		if idx, ok := t.overrides[fed]; ok {
			code += int(idx+1) << (2 - 2*i)
		}
	}
	return code
}

// TestTableAlgebraConverges checks Adopt over every pair and triple of
// tables at epochs 1–3: placed one per node, the nodes adopting each
// other's tables in every order reach, on every path, a state where no
// adoption changes anything and every node holds one table — within a
// bounded number of changes, with no node's epoch ever going down. The
// equal-epoch merge is commutative, and a newer table wins whole.
func TestTableAlgebraConverges(t *testing.T) {
	u := newUniverse(t)
	// merged is the equal-epoch merge, pin by pin: the union, the smaller
	// member ID where both pin (members are numbered in ID order), one
	// epoch past both.
	merged := func(a, b int) int {
		code := (a/16 + 1) * 16
		for shift := 0; shift <= 2; shift += 2 {
			pa, pb := a>>shift&3, b>>shift&3
			if pa == 0 || pb != 0 && pb < pa {
				pa = pb
			}
			code += pa << shift
		}
		return code
	}
	adopted := make(map[[2]int]int) // (holder, learned) → the table the holder keeps
	var adopt func(a, b int) int
	adopt = func(a, b int) int {
		if got, ok := adopted[[2]int{a, b}]; ok {
			return got
		}
		ta, tb := u.table(a), u.table(b)
		got := a
		if next := ta.Adopt(tb.Epoch(), tb.Overrides()); next != nil {
			got = u.code(next)
		}
		adopted[[2]int{a, b}] = got
		switch ea, eb, eg := a/16, b/16, got/16; {
		case eg < ea:
			t.Fatalf("adopting %d into %d lowered the epoch to %d", b, a, eg)
		case eb > ea && got != b:
			t.Fatalf("adopting newer %d into %d gave %d", b, a, got)
		case eb < ea && got != a:
			t.Fatalf("adopting older %d into %d gave %d", b, a, got)
		case eb == ea && a != b && (got != merged(a, b) || got != adopt(b, a)):
			t.Fatalf("equal-epoch merge of %d and %d gave %d, and %d the other way, want %d", a, b, got, adopt(b, a), merged(a, b))
		}
		return got
	}
	var tables []int
	for epoch := 1; epoch <= 3; epoch++ {
		for pins := 0; pins < 16; pins++ {
			tables = append(tables, epoch*16+pins)
		}
	}
	// A state is the nodes' tables, sorted: nodes are interchangeable.
	done := make(map[[3]int]bool)
	var explore func(nodes []int, changes int)
	explore = func(nodes []int, changes int) {
		key := [3]int{-1, -1, -1}
		copy(key[:], nodes)
		if done[key] {
			return
		}
		if changes > 8 {
			t.Fatalf("tables %v still changing after %d adoptions", nodes, changes)
		}
		quiet := true
		for i := range nodes {
			for j := range nodes {
				if got := adopt(nodes[i], nodes[j]); got != nodes[i] {
					quiet = false
					next := slices.Clone(nodes)
					next[i] = got
					slices.Sort(next)
					explore(next, changes+1)
				}
			}
		}
		if quiet && nodes[0] != nodes[len(nodes)-1] {
			t.Fatalf("nodes settled on different tables %v", nodes)
		}
		done[key] = true
	}
	for _, a := range tables {
		for _, b := range tables {
			if b < a {
				continue
			}
			explore([]int{a, b}, 0)
			for _, c := range tables {
				if c >= b {
					explore([]int{a, b, c}, 0)
				}
			}
		}
	}
}

// TestTablePinAndFence checks Pin and Fence over every table of the
// universe, every federation (one never pinned), every member (one
// unknown) and every minimum epoch: a pin places the federation on the
// member at max(epoch+1, minEpoch) and touches nothing else, a second
// pin of the same move is nil, and a fence never lowers an epoch.
func TestTablePinAndFence(t *testing.T) {
	u := newUniverse(t)
	feds := append(u.feds[:], "f3")
	ids := []string{"n1", "n2", "n3", "nope"}
	for code := 16; code < 64; code++ {
		tab := u.table(code)
		for _, fed := range feds {
			for _, id := range ids {
				for minEpoch := uint64(0); minEpoch <= 5; minEpoch++ {
					p := tab.Pin(fed, id, minEpoch)
					if p == nil {
						if _, known := tab.Member(id); known && (tab.Epoch() < minEpoch || tab.Owner(fed).ID != id) {
							t.Fatalf("table %d: Pin(%s, %s, %d) refused a move", code, fed, id, minEpoch)
						}
						continue
					}
					if p.Epoch() != max(tab.Epoch()+1, minEpoch) || p.Owner(fed).ID != id {
						t.Fatalf("table %d: Pin(%s, %s, %d) = epoch %d owner %s", code, fed, id, minEpoch, p.Epoch(), p.Owner(fed).ID)
					}
					for _, other := range feds {
						if other != fed && p.Owner(other) != tab.Owner(other) {
							t.Fatalf("table %d: Pin(%s, %s, %d) moved %s", code, fed, id, minEpoch, other)
						}
					}
					if again := p.Pin(fed, id, minEpoch); again != nil {
						t.Fatalf("table %d: Pin(%s, %s, %d) twice bumped to epoch %d", code, fed, id, minEpoch, again.Epoch())
					}
				}
			}
		}
		for e := uint64(0); e <= 5; e++ {
			f := tab.Fence(e)
			if (f == nil) != (tab.Epoch() >= e) || f != nil && (f.Epoch() != e || !maps.Equal(f.Overrides(), tab.Overrides())) {
				t.Fatalf("table %d: Fence(%d) = %v", code, e, f)
			}
		}
	}
}

// TestTableNeverWraps: no method mints an epoch past 2⁶⁴−1, so a table
// there takes no further change rather than wrapping to 0 and losing to
// every table it should beat.
func TestTableNeverWraps(t *testing.T) {
	u := newUniverse(t)
	tab := u.table(16).Pin("f1", "n2", math.MaxUint64-1)
	top := tab.Adopt(math.MaxUint64-1, map[string]string{"f2": "n3"}) // an equal-epoch merge
	if top == nil || top.Epoch() != math.MaxUint64 {
		t.Fatalf("merge at 2^64-2 = %v", top)
	}
	if p := top.Pin("f1", "n1", 0); p != nil {
		t.Fatalf("Pin at 2^64-1 minted epoch %d", p.Epoch())
	}
	if a := top.Adopt(math.MaxUint64, map[string]string{"f1": "n1"}); a != nil {
		t.Fatalf("an equal-epoch merge at 2^64-1 minted epoch %d", a.Epoch())
	}
	if f := top.Fence(math.MaxUint64); f != nil {
		t.Fatalf("Fence at 2^64-1 = epoch %d", f.Epoch())
	}
}

// FuzzAdopt drives arbitrary sequences of Adopt, Pin and Fence — any
// epoch, any federation, members known or not, override sets empty or
// not — and checks after every step that the epoch rose or the table
// stood, that every federation's owner is a member, and that the table
// round-trips through its wire form.
func FuzzAdopt(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1, 2})
	f.Add(binary.BigEndian.AppendUint64([]byte{0}, math.MaxUint64))
	f.Add(append(binary.BigEndian.AppendUint64([]byte{0}, math.MaxUint64-1), 3, 0, 3, 1, 2, 2, 1))
	f.Add(append(binary.BigEndian.AppendUint64([]byte{1, 0, 1}, 7), 2, 0, 0, 0, 0, 0, 0, 0, 9))
	u := newUniverse(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		feds := []string{"f1", "f2", "f3", ""}
		ids := []string{"n1", "n2", "n3", "nope", ""}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		epoch := func() uint64 {
			var e uint64
			for range 8 {
				e = e<<8 | uint64(next())
			}
			return e
		}
		tab := NewTable(u.ring)
		for len(data) > 0 {
			var got *Table
			switch op := next() % 3; op {
			case 0:
				e, ov := epoch(), map[string]string{}
				for n := next() % 4; n > 0; n-- {
					ov[feds[int(next())%len(feds)]] = ids[int(next())%len(ids)]
				}
				got = tab.Adopt(e, ov)
			case 1:
				fed, id := feds[int(next())%len(feds)], ids[int(next())%len(ids)]
				got = tab.Pin(fed, id, epoch())
			case 2:
				got = tab.Fence(epoch())
			}
			if got != nil {
				if got.Epoch() <= tab.Epoch() {
					t.Fatalf("epoch went from %d to %d", tab.Epoch(), got.Epoch())
				}
				tab = got
			}
			for _, fed := range feds {
				if _, ok := tab.Member(tab.Owner(fed).ID); !ok {
					t.Fatalf("%q is owned by %v, not a member", fed, tab.Owner(fed))
				}
			}
			rt := (&Table{ring: u.ring}).Adopt(tab.Epoch(), tab.Overrides())
			if rt == nil || rt.Epoch() != tab.Epoch() || !maps.Equal(rt.Overrides(), tab.Overrides()) {
				t.Fatalf("epoch %d %v does not round-trip: %v", tab.Epoch(), tab.Overrides(), rt)
			}
		}
	})
}
