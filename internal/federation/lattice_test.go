package federation

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/tpch"
)

func TestValidateNodeChoices(t *testing.T) {
	cases := []struct {
		name    string
		choices []int
		ok      bool
	}{
		{"valid", []int{1, 2, 4}, true},
		{"valid-over-capacity", []int{1, 8, 64}, true},
		{"empty", nil, false},
		{"zero", []int{1, 0}, false},
		{"negative", []int{-2, 1}, false},
		{"duplicate", []int{1, 2, 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateNodeChoices(tc.choices)
			if tc.ok && err != nil {
				t.Fatalf("ValidateNodeChoices(%v) = %v, want nil", tc.choices, err)
			}
			if !tc.ok {
				if !errors.Is(err, ErrBadNodeChoices) {
					t.Fatalf("ValidateNodeChoices(%v) = %v, want ErrBadNodeChoices", tc.choices, err)
				}
			}
		})
	}
}

func TestEnumeratePlansRejectsBadMenus(t *testing.T) {
	fed := defaultFed(t)
	for _, choices := range [][]int{nil, {}, {0}, {-1, 2}, {2, 2}} {
		if _, err := fed.EnumeratePlans(tpch.QueryQ12, choices); !errors.Is(err, ErrBadNodeChoices) {
			t.Errorf("EnumeratePlans(%v) err = %v, want ErrBadNodeChoices", choices, err)
		}
	}
	// A menu entirely above one site's capacity enumerates zero plans on
	// that axis; that degenerate lattice is an error too (postgres-azure
	// caps at 4 nodes in the default topology).
	if _, err := fed.EnumeratePlans(tpch.QueryQ12, []int{8, 16}); !errors.Is(err, ErrBadNodeChoices) {
		t.Errorf("all-over-capacity menu err = %v, want ErrBadNodeChoices", err)
	}
}

// TestLatticeAtMatchesEnumerate pins the positional view: At(i) is the
// i-th plan EnumeratePlans lists, over the whole lattice.
func TestLatticeAtMatchesEnumerate(t *testing.T) {
	fed := defaultFed(t)
	choices := []int{1, 2, 4, 8, 16} // 8 and 16 exceed postgres-azure capacity
	plans, err := fed.EnumeratePlans(tpch.QueryQ12, choices)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := fed.PlanLattice(tpch.QueryQ12, choices)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Size() != len(plans) {
		t.Fatalf("lattice Size = %d, want %d", lat.Size(), len(plans))
	}
	for i, want := range plans {
		if at := lat.At(i); at != want {
			t.Fatalf("At(%d) = %v, want %v", i, at, want)
		}
	}
}

func TestLatticeDimsAndIndex(t *testing.T) {
	fed := defaultFed(t)
	lat, err := fed.PlanLattice(tpch.QueryQ12, []int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	sides, left, right := lat.Dims()
	// hive-aws keeps all 5 choices, postgres-azure (MaxNodes 4) keeps 3.
	if sides != 2 || left != 5 || right != 3 {
		t.Fatalf("Dims = (%d, %d, %d), want (2, 5, 3)", sides, left, right)
	}
	if lat.Size() != sides*left*right {
		t.Fatalf("Size = %d, want %d", lat.Size(), sides*left*right)
	}
	// Index must be the inverse of At's decoding over the whole lattice,
	// and the axes name each point's node counts.
	la, ra := lat.Axes()
	if len(la) != left || len(ra) != right {
		t.Fatalf("Axes = %v × %v, want %d × %d sizes", la, ra, left, right)
	}
	i := 0
	for s := 0; s < sides; s++ {
		for li := 0; li < left; li++ {
			for ri := 0; ri < right; ri++ {
				if got := lat.Index(s, li, ri); got != i {
					t.Fatalf("Index(%d,%d,%d) = %d, want %d", s, li, ri, got, i)
				}
				if p := lat.At(i); p.NodesLeft != la[li] || p.NodesRight != ra[ri] || p.JoinAtLeft != (s == 0) {
					t.Fatalf("At(%d) = %v, want side %d, %d × %d nodes", i, p, s, la[li], ra[ri])
				}
				i++
			}
		}
	}
}

func TestNodeRange(t *testing.T) {
	if got := NodeRange(4); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("NodeRange(4) = %v", got)
	}
	if got := NodeRange(0); got != nil {
		t.Fatalf("NodeRange(0) = %v, want nil", got)
	}
}

// TestWideTopologyReachesPaperRegime checks the Example 3.1 scale: a
// 96-node-wide federation with the dense menu enumerates at least the
// paper's 18,200 equivalent QEPs.
func TestWideTopologyReachesPaperRegime(t *testing.T) {
	fed, err := WideTopology(1, 96)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := fed.PlanLattice(tpch.QueryQ12, NodeRange(96))
	if err != nil {
		t.Fatal(err)
	}
	if lat.Size() != 2*96*96 {
		t.Fatalf("Size = %d, want %d", lat.Size(), 2*96*96)
	}
	if lat.Size() < 18200 {
		t.Fatalf("Size = %d, below the paper's 18,200-plan regime", lat.Size())
	}
	if _, err := WideTopology(1, 0); err == nil {
		t.Fatal("WideTopology(…, 0) accepted")
	}
}
