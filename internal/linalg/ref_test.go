package linalg

import "fmt"

// Test fixtures and the references the factor-once paths are held to:
// LeastSquares is the one-shot QR solve QR.Solve must reproduce bit for
// bit, Ridge the one-shot normal-equations solve behind Cholesky.

// FromRows builds a matrix from row slices, which must all have equal
// length. The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("mulvec %dx%d by %d-vector: %w", m.rows, m.cols, len(x), ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out, nil
}

// LeastSquares solves min ||Ax - b||2 by Householder QR with column
// checks for rank deficiency. A must have at least as many rows as
// columns. It returns ErrSingular when a diagonal element of R falls
// below a relative tolerance, meaning the predictors are (numerically)
// linearly dependent — the condition the paper's VIF/stepwise step
// exists to remove. Callers solving many right-hand sides against one
// matrix should factor once with QRDecompose and call Solve per b.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("lstsq %dx%d with %d-vector: %w", a.rows, a.cols, len(b), ErrShape)
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("lstsq underdetermined %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if a.cols == 0 {
		return []float64{}, nil
	}
	qr, err := QRDecompose(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}

// Ridge solves the regularized least-squares problem
// min ||Ax - b||2 + lambda*||x||2 via the normal equations
// (A'A + lambda I) x = A'b using Cholesky factorization. With
// lambda > 0 the system is always positive definite, so Ridge succeeds
// where LeastSquares reports ErrSingular; it is the graceful fallback
// for (near-)collinear predictors.
func Ridge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("ridge %dx%d with %d-vector: %w", a.rows, a.cols, len(b), ErrShape)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("ridge lambda %v: must be non-negative", lambda)
	}
	p := a.cols
	if p == 0 {
		return []float64{}, nil
	}
	// Gram matrix G = A'A + lambda I and moment vector m = A'b; the
	// regularized system is solved via the cached Cholesky machinery
	// (callers with a cached Gram reproduce this path exactly).
	g := Gram(a)
	for i := 0; i < p; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	m, err := a.TransposeMulVec(b)
	if err != nil {
		return nil, err
	}
	ch, err := CholeskyDecompose(g)
	if err != nil {
		return nil, err
	}
	return ch.Solve(m)
}

// Clone returns an independent copy of the factor.
func (c *Cholesky) Clone() *Cholesky {
	return &Cholesky{l: c.l.Clone()}
}
