package linalg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// randSPD builds a random symmetric positive definite matrix AᵀA + d·I
// the way the regression layer does: from a random design matrix.
func randSPD(rng *stats.RNG, n, rows int) *Matrix {
	a := New(rows, n)
	for i := 0; i < rows; i++ {
		a.Set(i, 0, 1)
		for j := 1; j < n; j++ {
			a.Set(i, j, rng.Uniform(-5, 5))
		}
	}
	ata, err := a.T().Mul(a)
	if err != nil {
		panic(err)
	}
	return ata
}

// gaussSolve is the reference solver the Cholesky path is checked
// against: Gaussian elimination with partial pivoting on copies of m and
// b, ErrSingular at a pivot below 1e-12.
func gaussSolve(m *Matrix, b []float64) ([]float64, error) {
	n := m.rows
	a := New(n, n)
	copy(a.data, m.data)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if math.Abs(a.At(pivot, col)) < 1e-12 {
			return nil, ErrSingular
		}
		for c := 0; c < n; c++ {
			v := a.At(col, c)
			a.Set(col, c, a.At(pivot, c))
			a.Set(pivot, c, v)
		}
		x[col], x[pivot] = x[pivot], x[col]
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / a.At(col, col)
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		for k := col + 1; k < n; k++ {
			x[col] -= a.At(col, k) * x[k]
		}
		x[col] /= a.At(col, col)
	}
	return x, nil
}

// factor is a fresh Cholesky factor of a + ridge·I.
func factor(a *Matrix, ridge float64) (*Cholesky, error) {
	ch := &Cholesky{}
	if err := ch.Factorize(a, ridge); err != nil {
		return nil, err
	}
	return ch, nil
}

func TestCholeskyMatchesGaussianSolve(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		spd := randSPD(rng, n, n+2+rng.Intn(10))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-10, 10)
		}
		ge, err := gaussSolve(spd, b)
		if err != nil {
			continue // a singular draw is not this test's subject
		}
		ch, err := factor(spd, 0)
		if err != nil {
			t.Fatalf("trial %d: Cholesky failed where GE solved: %v", trial, err)
		}
		got, err := ch.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-ge[i]) > 1e-8*(1+math.Abs(ge[i])) {
				t.Fatalf("trial %d: x[%d] = %v (Cholesky) vs %v (GE)", trial, i, got[i], ge[i])
			}
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := stats.NewRNG(2)
	spd := randSPD(rng, 4, 12)
	ch, err := factor(spd, 0)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must reproduce the input.
	n := ch.n
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, ch.l[i*n+j])
		}
	}
	back, err := l.Mul(l.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(back.At(i, j)-spd.At(i, j)) > 1e-9 {
				t.Fatalf("(L·Lᵀ)[%d][%d] = %v, A has %v", i, j, back.At(i, j), spd.At(i, j))
			}
		}
	}
}

func TestCholeskySingular(t *testing.T) {
	// Rank-deficient: second column is twice the first.
	a := New(3, 3)
	vals := [][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 10}}
	for i := range vals {
		for j, v := range vals[i] {
			a.Set(i, j, v)
		}
	}
	ch := &Cholesky{}
	if err := ch.Factorize(a, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
	if _, err := ch.SolveVec([]float64{1, 2, 3}); err == nil {
		t.Fatal("solve against a failed factor accepted")
	}
	// The same matrix with a ridge becomes solvable.
	if err := ch.Factorize(a, 1e-6); err != nil {
		t.Fatalf("ridge factorization failed: %v", err)
	}
}

func TestCholeskyNotSquare(t *testing.T) {
	ch := &Cholesky{}
	if err := ch.Factorize(New(2, 3), 0); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestCholeskyReuseShrinksAndGrows(t *testing.T) {
	rng := stats.NewRNG(6)
	ch := &Cholesky{}
	for _, n := range []int{5, 2, 7, 3} {
		spd := randSPD(rng, n, n+8)
		if err := ch.Factorize(spd, 0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ch.n != n {
			t.Fatalf("factor size = %d, want %d", ch.n, n)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-1, 1)
		}
		x, err := ch.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		back, err := spd.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				t.Fatalf("n=%d: A·x != b at %d: %v vs %v", n, i, back[i], b[i])
			}
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := New(3, 3)
	if err := m.AddOuter([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddOuter([]float64{0, 1, -1}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 3}, {2, 5, 5}, {3, 5, 10}}
	for i := range want {
		for j, w := range want[i] {
			if math.Abs(m.At(i, j)-w) > 1e-12 {
				t.Fatalf("m[%d][%d] = %v, want %v", i, j, m.At(i, j), w)
			}
		}
	}
	if err := m.AddOuter([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("short vector: got %v, want ErrShape", err)
	}
	if err := New(2, 3).AddOuter([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square: got %v, want ErrShape", err)
	}
	m.Zero()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatal("Zero left a non-zero element")
			}
		}
	}
}
