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

// matrixOf builds a matrix from equal-length rows with New and Set.
func matrixOf(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestRowView(t *testing.T) {
	m := matrixOf([][]float64{{1, 2}, {3, 4}})
	v := m.RowView(0)
	m.Set(0, 1, 7) // must show through, and an append must not reach row 1
	if len(v) != 2 || v[1] != 7 || append(v, 0)[0] != 1 || m.At(1, 0) != 3 {
		t.Errorf("RowView(0) = %v", v)
	}
}

func TestTranspose(t *testing.T) {
	m := matrixOf([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.cols != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.cols)
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := matrixOf([][]float64{{1, 2}, {3, 4}})
	b := matrixOf([][]float64{{5, 6}, {7, 8}})
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
	a := matrixOf([][]float64{{1, 2, 3}, {4, 5, 6}})
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
	a := matrixOf([][]float64{{2, 1}, {1, 3}})
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
	a := matrixOf([][]float64{{1, 2}, {2, 4}})
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
	a := matrixOf([][]float64{{0, 1}, {1, 0}})
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
		tt := matrixOf(rect).T().T()
		if tt.Rows() != len(rect) {
			return false
		}
		for i, r := range rect {
			for j, v := range r {
				if tt.At(i, j) != v {
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
