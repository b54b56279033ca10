package linalg

import (
	"fmt"
	"math"
)

// Gram returns the Gram matrix A'A. The summation order is fixed, so
// callers caching the Gram and adding a ridge term later reproduce a
// fresh normal-equations solve bit for bit.
func Gram(a *Matrix) *Matrix {
	p := a.cols
	g := NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			var s float64
			for r := 0; r < a.rows; r++ {
				s += a.At(r, i) * a.At(r, j)
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	return g
}

// TransposeMulVec returns A'b.
func (m *Matrix) TransposeMulVec(b []float64) ([]float64, error) {
	if len(b) != m.rows {
		return nil, fmt.Errorf("tmulvec %dx%d by %d-vector: %w", m.rows, m.cols, len(b), ErrShape)
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.cols; i++ {
		var s float64
		for r := 0; r < m.rows; r++ {
			s += m.At(r, i) * b[r]
		}
		out[i] = s
	}
	return out, nil
}

// Cholesky is the cached lower-triangular factor of a symmetric
// positive-definite matrix G = L·L'. Factoring costs O(p³); every
// Solve costs O(p²), so systems sharing one matrix (ridge fits on a
// cached Gram, the p unit-vector solves behind Inverse) factor once.
type Cholesky struct {
	l *Matrix
	// work is a lazily grown p-length scratch vector shared by the
	// rank-1 up/downdate recurrences and SolveInto (sliding.go) so the
	// hot incremental path never allocates.
	work []float64
}

// CholeskyDecompose factors a symmetric positive-definite matrix. A
// non-positive pivot — the matrix is singular or indefinite — surfaces
// as ErrSingular.
func CholeskyDecompose(g *Matrix) (*Cholesky, error) {
	if g.rows != g.cols {
		return nil, fmt.Errorf("cholesky of %dx%d: %w", g.rows, g.cols, ErrShape)
	}
	p := g.rows
	l := NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			s := g.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("gram diagonal %d: %w", i, ErrSingular)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with G·x = b via forward substitution L·y = b and
// back substitution L'·x = y.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	p := c.l.rows
	if len(b) != p {
		return nil, fmt.Errorf("cholesky solve %dx%d with %d-vector: %w", p, p, len(b), ErrShape)
	}
	l := c.l
	y := make([]float64, p)
	for i := 0; i < p; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < p; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// Inverse returns G⁻¹ by solving the p unit systems against the cached
// factor — the one factorization the Gram-matrix VIF identity
// (VIF_i = [R⁻¹]_ii) needs, replacing p independent least-squares
// fits.
func (c *Cholesky) Inverse() *Matrix {
	p := c.l.rows
	inv := NewMatrix(p, p)
	e := make([]float64, p)
	for j := 0; j < p; j++ {
		e[j] = 1
		col, _ := c.Solve(e) // length always matches: no error possible
		e[j] = 0
		for i := 0; i < p; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}
