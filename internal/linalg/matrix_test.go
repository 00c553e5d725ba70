package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged rows: got %v, want ErrShape", err)
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil rows: got %v, want ErrShape", err)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 6 || v[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", v)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short vector: got %v, want ErrShape", err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	ch, err := factor(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveVec([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := factor(a, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
	if _, err := gaussSolve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("reference: got %v, want ErrSingular", err)
	}
}

// TestSolveNeedsPivoting: a system Gaussian elimination solves only by
// swapping rows is indefinite, and Cholesky refuses it.
func TestSolveNeedsPivoting(t *testing.T) {
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := gaussSolve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("reference solution = %v, want [3 2]", x)
	}
	if _, err := factor(a, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("Cholesky of an indefinite matrix: got %v, want ErrSingular", err)
	}
}

func TestAdd(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	s, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 1) != 44 {
		t.Errorf("Add(1,1) = %v, want 44", s.At(1, 1))
	}
	if _, err := a.Add(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("Add shape mismatch: got %v, want ErrShape", err)
	}
}

func TestRowColClone(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(1)
	r[0] = 99 // must not alias
	if a.At(1, 0) != 3 {
		t.Error("Row aliases the matrix")
	}
	b := a.Clone()
	v := b.RowView(0)
	b.Set(0, 1, 7) // must show through, and an append must not reach row 1
	if len(v) != 2 || v[1] != 7 || append(v, 0)[0] != 1 || b.At(1, 0) != 3 {
		t.Errorf("RowView(0) = %v of %v", v, b)
	}
	c := a.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Col = %v, want [2 4]", c)
	}
	cl := a.Clone()
	cl.Set(0, 0, -1)
	if a.At(0, 0) != 1 {
		t.Error("Clone aliases the matrix")
	}
}

func TestStringSmoke(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	if got := a.String(); got == "" {
		t.Error("String returned empty")
	}
}

// randomWellConditioned builds a random symmetric, strictly diagonally
// dominant matrix with a positive diagonal, which is guaranteed
// positive definite.
func randomWellConditioned(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, rowSum+1+rng.Float64())
	}
	return m
}

func TestPropertySolveConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRaw uint8) bool {
		n := int(nRaw%5) + 2
		m := randomWellConditioned(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		ch, err := factor(m, 0)
		if err != nil {
			return false
		}
		x, err := ch.SolveVec(b)
		if err != nil {
			return false
		}
		back, err := m.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(rows [][]float64) bool {
		// Normalize: drop empties and force rectangular input.
		if len(rows) == 0 || len(rows[0]) == 0 {
			return true
		}
		w := len(rows[0])
		rect := make([][]float64, 0, len(rows))
		for _, r := range rows {
			if len(r) != w {
				return true
			}
			rect = append(rect, r)
		}
		m, err := FromRows(rect)
		if err != nil {
			return true
		}
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomWellConditioned(rng, 32)
	rhs := make([]float64, 32)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	var ch Cholesky
	x := make([]float64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Factorize(m, 0); err != nil {
			b.Fatal(err)
		}
		if err := ch.SolveVecInto(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
