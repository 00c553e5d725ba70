package moo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParetoDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 2}, true}, // better in one, equal in other
		{[]float64{2, 2}, []float64{2, 2}, false},
		{[]float64{3, 1}, []float64{2, 2}, false},
	}
	for _, c := range cases {
		got, err := ParetoDominates(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("ParetoDominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// frontOf is ParetoFront over rows held as [][]float64.
func frontOf(rows [][]float64) ([]int, error) {
	m, err := NewCostMatrix(rows)
	if err != nil {
		return nil, err
	}
	return ParetoFront(m)
}

func TestParetoFront(t *testing.T) {
	costs := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 5}, // dominated by {3,3} and {2,4}
		{5, 1}, // front
		{6, 6}, // dominated
	}
	front, err := frontOf(costs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 2: true, 4: true}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want indices %v", front, want)
	}
	for _, i := range front {
		if !want[i] {
			t.Errorf("index %d in front but is dominated", i)
		}
	}
}

func TestParetoFrontIdenticalPoints(t *testing.T) {
	costs := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	front, err := frontOf(costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 2 {
		t.Errorf("identical optima: front = %v, want both copies kept", front)
	}
}

func TestNonDominatedSort(t *testing.T) {
	costs := [][]float64{
		{1, 1}, // F1
		{2, 2}, // F2
		{3, 3}, // F3
		{1, 4}, // F1 (incomparable with {1,1}? no: {1,1} dominates {1,4}) → F2
		{4, 1}, // dominated by {1,1} → F2
	}
	fronts, err := NonDominatedSort(costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fronts[0]) != 1 || fronts[0][0] != 0 {
		t.Errorf("F1 = %v, want [0]", fronts[0])
	}
	total := 0
	for _, f := range fronts {
		total += len(f)
	}
	if total != len(costs) {
		t.Errorf("fronts cover %d points, want %d", total, len(costs))
	}
}

// Property: every point in a later front is dominated by some point in
// an earlier front, and F1 equals ParetoFront.
func TestPropertyNonDominatedSortLayers(t *testing.T) {
	f := func(raw []float64) bool {
		// Build 2-objective points from the raw stream.
		n := len(raw) / 2
		if n < 2 || n > 40 {
			return true
		}
		costs := make([][]float64, n)
		for i := 0; i < n; i++ {
			a, b := raw[2*i], raw[2*i+1]
			if a != a || b != b { // NaN
				return true
			}
			costs[i] = []float64{a, b}
		}
		fronts, err := NonDominatedSort(costs)
		if err != nil {
			return false
		}
		pf, err := frontOf(costs)
		if err != nil {
			return false
		}
		if len(fronts[0]) != len(pf) {
			return false
		}
		// Every member of front k>0 must be dominated by some member of
		// front k-1.
		for k := 1; k < len(fronts); k++ {
			for _, i := range fronts[k] {
				dominated := false
				for _, j := range fronts[k-1] {
					d, err := ParetoDominates(costs[j], costs[i])
					if err != nil {
						return false
					}
					if d {
						dominated = true
						break
					}
				}
				if !dominated {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: dominance is transitive and antisymmetric (modulo equality).
func TestPropertyDominanceLaws(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		av, bv, cv := a[:], b[:], c[:]
		ab, _ := ParetoDominates(av, bv)
		bc, _ := ParetoDominates(bv, cv)
		ac, _ := ParetoDominates(av, cv)
		if ab && bc && !ac {
			return false // transitivity violated
		}
		ba, _ := ParetoDominates(bv, av)
		return !(ab && ba) // antisymmetry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// paretoFrontOracle is the all-pairs definition ParetoFront replaced:
// index i is in the front iff no other row Pareto-dominates it.
func paretoFrontOracle(costs [][]float64) ([]int, error) {
	var front []int
	for i, ci := range costs {
		dominated := false
		for j, cj := range costs {
			if i == j {
				continue
			}
			dom, err := ParetoDominates(cj, ci)
			if err != nil {
				return nil, err
			}
			if dom {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front, nil
}

// Property: the running front equals the all-pairs oracle. Values come
// from a small integer grid so ties, duplicate rows and per-dimension
// equalities are common, with ±Inf mixed in.
func TestParetoFrontMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20190326))
	dims := []int{1, 2, 3, 5}
	for trial := 0; trial < 10000; trial++ {
		m := dims[rng.Intn(len(dims))]
		n := rng.Intn(301)
		if trial%4 != 0 {
			n = rng.Intn(40) // keep most trials cheap for the quadratic oracle
		}
		grid := 2 + rng.Intn(6)
		costs := make([][]float64, n)
		for i := range costs {
			row := make([]float64, m)
			for k := range row {
				switch r := rng.Intn(40); r {
				case 0:
					row[k] = math.Inf(1)
				case 1:
					row[k] = math.Inf(-1)
				default:
					row[k] = float64(rng.Intn(grid))
				}
			}
			costs[i] = row
		}
		want, err := paretoFrontOracle(costs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := frontOf(costs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, M=%d): front %v, oracle %v\ncosts %v", trial, n, m, got, want, costs)
		}
		if packed, _ := NewCostMatrix(costs); m == 2 && !slices.Equal(paretoFrontRows(nil, packed), want) {
			t.Fatalf("trial %d (n=%d): Row loop %v, oracle %v\ncosts %v", trial, n, paretoFrontRows(nil, packed), want, costs)
		}
	}
}

// TestCostMatrix pins the two ways in and the row views: what packs,
// what is refused, and that a row cannot be appended into its neighbour.
func TestCostMatrix(t *testing.T) {
	m, err := NewCostMatrix([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil || m.Len() != 2 || !slices.Equal(m.Row(1), []float64{4, 5, 6}) {
		t.Fatalf("packed: %v, %v", m, err)
	}
	if r := m.Row(0); cap(r) != 3 {
		t.Errorf("row 0 has capacity %d: an append would overwrite row 1", cap(r))
	}
	flat := []float64{1, 2, 3, 4}
	if w, err := FlatCostMatrix(flat, 2); err != nil || w.Len() != 2 || &w.Row(1)[0] != &flat[2] {
		t.Errorf("FlatCostMatrix copied or miscounted: %v, %v", w, err)
	}
	for _, tc := range []struct {
		name string
		make func() (CostMatrix, error)
	}{
		{"ragged", func() (CostMatrix, error) { return NewCostMatrix([][]float64{{1, 2}, {3}}) }},
		{"zero-width rows", func() (CostMatrix, error) { return NewCostMatrix([][]float64{{}, {}}) }},
		{"partial row", func() (CostMatrix, error) { return FlatCostMatrix(flat[:3], 2) }},
		{"width 0", func() (CostMatrix, error) { return FlatCostMatrix(flat, 0) }},
		{"negative width", func() (CostMatrix, error) { return FlatCostMatrix(flat, -2) }},
	} {
		if got, err := tc.make(); !errors.Is(err, ErrDimension) || got.Len() != 0 {
			t.Errorf("%s: %v, %v; want the empty matrix and ErrDimension", tc.name, got, err)
		}
	}
	for _, empty := range []func() (CostMatrix, error){
		func() (CostMatrix, error) { return NewCostMatrix(nil) },
		func() (CostMatrix, error) { return FlatCostMatrix(nil, 0) },
	} {
		if got, err := empty(); err != nil || got.Len() != 0 {
			t.Errorf("empty: %v, %v", got, err)
		}
	}
}

// A ragged matrix is ErrDimension wherever the short row sits — the
// single pass compares fewer pairs than the oracle did, so it cannot
// rely on meeting the bad row in a comparison.
func TestParetoFrontRaggedRows(t *testing.T) {
	for bad := 0; bad < 4; bad++ {
		costs := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
		costs[bad] = []float64{0}
		if _, err := frontOf(costs); !errors.Is(err, ErrDimension) {
			t.Errorf("short row at %d: got %v, want ErrDimension", bad, err)
		}
		if _, err := paretoFrontOracle(costs); !errors.Is(err, ErrDimension) {
			t.Errorf("oracle, short row at %d: got %v, want ErrDimension", bad, err)
		}
	}
	if front, err := frontOf([][]float64{{7}}); err != nil || !slices.Equal(front, []int{0}) {
		t.Errorf("single row: %v, %v", front, err)
	}
	if front, err := frontOf(nil); err != nil || front != nil {
		t.Errorf("empty: %v, %v", front, err)
	}
	if front, err := ParetoFront(CostMatrix{}); err != nil || front != nil {
		t.Errorf("zero matrix: %v, %v", front, err)
	}
}

// FuzzParetoFront decodes the input as a row width and float64 values
// and packs them into a CostMatrix. NaN-free matrices must match the
// all-pairs oracle exactly; any matrix must come back without a panic
// and with strictly ascending in-range indices; and at two objectives
// the two-compare path and the generic Row loop — one tie rule, two
// implementations — must agree on any input, NaN-bearing included.
func FuzzParetoFront(f *testing.F) {
	le := binary.LittleEndian
	seed := func(m byte, vals ...float64) {
		b := []byte{m}
		for _, v := range vals {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(2, 1, 5, 2, 4, 3, 3, 3, 5, 5, 1, 6, 6)
	seed(2, 1, 1, 1, 1, 2, 2)
	seed(1, 3, 1, 2, math.Inf(1), math.Inf(-1))
	seed(3, math.NaN(), 1, 2, 0, math.NaN(), 3, 1, 1, 1)
	// What planProblem.Evaluate emits for a plan it cannot score, beside
	// rows that can be; -0 against +0 (equal, so neither dominates);
	// duplicate rows either side of the row that evicts them.
	inf := math.Inf(1)
	seed(1, inf, inf, 2, 3, inf, inf, 3, 2, -inf, inf)
	seed(1, math.Copysign(0, -1), 1, 0, 1, 0, math.Copysign(0, -1))
	seed(1, 2, 2, 2, 2, 1, 1, 2, 2, 1, 1)
	seed(1, math.NaN(), 1, 1, math.NaN(), 0, 0, math.NaN(), math.NaN())
	// A front longer than paretoFront2's stack buffer, then a row that
	// evicts all of it.
	var long []float64
	for i := 0; i < frontBuf+8; i++ {
		long = append(long, float64(i), float64(frontBuf+8-i))
	}
	seed(1, long...)
	seed(1, append(long, -1, -1)...)
	// Cases the staircase's binary search could get wrong: an antichain
	// in descending objective-0 order, so every row joins at the head;
	// copies of members arriving before and after the row that evicts
	// one of them; rows sharing objective 0 with different objective 1;
	// a front of copies longer than frontBuf, then a row dominating them.
	var desc, twins []float64
	for i := 0; i < frontBuf+8; i++ {
		desc = append(desc, float64(frontBuf+8-i), float64(i))
		twins = append(twins, 1, 1)
	}
	seed(1, desc...)
	seed(1, 1, 5, 4, 2, 4, 2, 1, 5, 2, 1, 1, 5, 4, 2)
	seed(1, 2, 5, 2, 3, 2, 4, 2, 3, 1, 9, 2, 1, 3, 1)
	seed(1, twins...)
	seed(1, append(twins, 1, 0)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := int(data[0]%5) + 1
		data = data[1:]
		n := len(data) / (8 * m)
		if n > 256 {
			n = 256
		}
		flat := make([]float64, n*m)
		rows := make([][]float64, n)
		hasNaN := false
		for i := range flat {
			flat[i] = math.Float64frombits(le.Uint64(data[8*i:]))
			hasNaN = hasNaN || math.IsNaN(flat[i])
		}
		costs, err := FlatCostMatrix(flat, m)
		if err != nil || costs.Len() != n {
			t.Fatalf("%d values in rows of %d: %d rows, %v", len(flat), m, costs.Len(), err)
		}
		for i := range rows {
			rows[i] = costs.Row(i)
		}
		got, err := ParetoFront(costs)
		if err != nil {
			t.Fatalf("rectangular matrix: %v", err)
		}
		// A reused destination holding stale indices gives the same front.
		if into := ParetoFrontInto([]int{-7, -7, -7}, costs); !slices.Equal(into, got) {
			t.Fatalf("front into a used slice %v, fresh %v", into, got)
		}
		for k, idx := range got {
			if idx < 0 || idx >= n || (k > 0 && idx <= got[k-1]) {
				t.Fatalf("front %v not strictly ascending within [0,%d)", got, n)
			}
		}
		if m == 2 {
			if generic := paretoFrontRows(nil, costs); !slices.Equal(got, generic) {
				t.Fatalf("two-compare front %v, Row loop %v\ncosts %v", got, generic, rows)
			}
		}
		if hasNaN {
			return
		}
		want, _ := paretoFrontOracle(rows)
		if !slices.Equal(got, want) {
			t.Fatalf("front %v, oracle %v\ncosts %v", got, want, rows)
		}
	})
}

// paretoBenchCosts builds n two-objective rows of the named shape:
// front1 has one row dominating all others and placed last (the order
// that made the all-pairs loop quadratic), front64 has a 64-row
// trade-off curve ahead of rows it dominates, antichain is all front —
// the remaining O(n²) worst case.
func paretoBenchCosts(shape string, n int) CostMatrix {
	costs := make([][]float64, n)
	for i := range costs {
		f := float64(i)
		switch shape {
		case "front1":
			costs[i] = []float64{float64(n) - f, float64(n) - f}
		case "front64":
			if i < 64 {
				costs[i] = []float64{f, 63 - f}
			} else {
				costs[i] = []float64{64 + f, 64 + float64(i%97)}
			}
		default: // antichain
			costs[i] = []float64{f, float64(n) - f}
		}
	}
	m, err := NewCostMatrix(costs)
	if err != nil {
		panic(err)
	}
	return m
}

var paretoSink []int

func BenchmarkParetoFront(b *testing.B) {
	for _, shape := range []string{"front1", "front64", "antichain"} {
		for _, n := range []int{2048, 18432} {
			costs := paretoBenchCosts(shape, n)
			b.Run(fmt.Sprintf("%s/n%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					front, err := ParetoFront(costs)
					if err != nil {
						b.Fatal(err)
					}
					paretoSink = front
				}
			})
		}
	}
}
