// Package linalg implements the small amount of dense linear algebra
// ATM needs: a row-major matrix type and Householder-QR least squares.
// It exists because the reproduction is stdlib-only; the paper's
// regression steps (OLS fits of dependent series on signature series,
// variance inflation factors, stepwise elimination) all reduce to
// solving min ||Ax - b||2.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by linalg operations.
var (
	// ErrShape indicates incompatible matrix dimensions.
	ErrShape = errors.New("linalg: incompatible shapes")
	// ErrSingular indicates a rank-deficient system with no unique
	// least-squares solution.
	ErrSingular = errors.New("linalg: singular (rank-deficient) matrix")
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix. It panics if either
// dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
