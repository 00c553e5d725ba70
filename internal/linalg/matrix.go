// Package linalg provides the small dense linear-algebra kernel used by
// the regression package: row-major matrices, products, transposes, and
// Cholesky solves.
//
// The package is deliberately minimal — it implements exactly what the
// normal-equation solution of Multiple Linear Regression (paper eq. 12,
// B = (AᵀA)⁻¹AᵀC) needs, with defensive error returns instead of panics
// so callers can fall back (e.g. to ridge regularization) when a window
// of observations is singular.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-valued rows×cols matrix.
// It panics if either dimension is not positive, since that is always a
// programming error at the call site.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// RowView returns row i as a view into m's storage, for reading in a
// loop that must not allocate: a later write to m shows through it.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.rows, m.cols, n.rows, n.cols)
	}
	out := New(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			nrow := n.data[k*n.cols : (k+1)*n.cols]
			for j, nv := range nrow {
				orow[j] += mv * nv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v as a slice.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// AddOuter adds the outer product v·vᵀ to the square matrix m in
// place — the rank-1 Gram update (AᵀA += a·aᵀ) at the heart of the
// incremental window search.
func (m *Matrix) AddOuter(v []float64) error {
	if m.rows != m.cols {
		return fmt.Errorf("%w: AddOuter on %dx%d", ErrShape, m.rows, m.cols)
	}
	if len(v) != m.rows {
		return fmt.Errorf("%w: AddOuter %dx%d with vector %d", ErrShape, m.rows, m.cols, len(v))
	}
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, vj := range v {
			row[j] += vi * vj
		}
	}
	return nil
}

// Zero resets every element in place, so scratch matrices can be
// recycled without reallocating.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}
