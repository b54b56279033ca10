package linalg

import (
	"fmt"
	"math"
)

// QR is a cached Householder QR factorization of a single design
// matrix. Factoring costs O(n·p²); every subsequent Solve costs only
// O(n·p) — the reflectors are replayed against the new right-hand side
// and the cached upper triangle is back-substituted, so callers
// fitting many targets against one predictor set (the spatial models
// fit every dependent series on the same signatures) never
// re-factorize the same matrix.
type QR struct {
	rows, cols int
	// r holds the reduced matrix; its upper triangle is R.
	r *Matrix
	// vs[k] is the Householder vector of step k (length rows-k); a nil
	// entry records a skipped reflector (zero tail).
	vs [][]float64
	// vnorm2[k] is ||vs[k]||².
	vnorm2 []float64
	// tol is the relative rank tolerance, scaled to the largest column
	// norm of the input.
	tol float64
}

// QRDecompose factors a by Householder reflections with column checks
// for rank deficiency. A must have at least as many rows as columns;
// a (numerically) rank-deficient matrix surfaces as ErrSingular.
func QRDecompose(a *Matrix) (*QR, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("qr underdetermined %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	q := &QR{
		rows:   a.rows,
		cols:   a.cols,
		r:      a.Clone(),
		vs:     make([][]float64, a.cols),
		vnorm2: make([]float64, a.cols),
	}
	r := q.r

	// Scale tolerance by the largest column norm.
	maxNorm := 0.0
	for j := 0; j < r.cols; j++ {
		n := norm2(r.Col(j))
		if n > maxNorm {
			maxNorm = n
		}
	}
	q.tol = 1e-10 * maxNorm
	if q.tol == 0 {
		q.tol = 1e-300
	}

	for k := 0; k < r.cols; k++ {
		// Householder reflector for column k, rows k..rows-1.
		var alpha float64
		for i := k; i < r.rows; i++ {
			v := r.At(i, k)
			alpha += v * v
		}
		alpha = math.Sqrt(alpha)
		if alpha < q.tol {
			return nil, fmt.Errorf("column %d: %w", k, ErrSingular)
		}
		if r.At(k, k) > 0 {
			alpha = -alpha
		}
		v := make([]float64, r.rows-k)
		v[0] = r.At(k, k) - alpha
		for i := k + 1; i < r.rows; i++ {
			v[i-k] = r.At(i, k)
		}
		vnorm2 := 0.0
		for _, x := range v {
			vnorm2 += x * x
		}
		if vnorm2 == 0 {
			continue
		}
		q.vs[k] = v
		q.vnorm2[k] = vnorm2
		// Apply H = I - 2 v v^T / (v^T v) to the remaining columns.
		for j := k; j < r.cols; j++ {
			var dot float64
			for i := k; i < r.rows; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			f := 2 * dot / vnorm2
			for i := k; i < r.rows; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i-k])
			}
		}
	}
	return q, nil
}

// Solve returns the least-squares solution of min ||Ax - b||2 for the
// factored A: it replays the cached reflectors onto b and
// back-substitutes the cached R.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if q.rows != len(b) {
		return nil, fmt.Errorf("qr solve %dx%d with %d-vector: %w", q.rows, q.cols, len(b), ErrShape)
	}
	if q.cols == 0 {
		return []float64{}, nil
	}
	qtb := make([]float64, len(b))
	copy(qtb, b)
	for k := 0; k < q.cols; k++ {
		v := q.vs[k]
		if v == nil {
			continue
		}
		var dot float64
		for i := k; i < q.rows; i++ {
			dot += v[i-k] * qtb[i]
		}
		f := 2 * dot / q.vnorm2[k]
		for i := k; i < q.rows; i++ {
			qtb[i] -= f * v[i-k]
		}
	}
	// Back substitution on the cached upper triangle.
	x := make([]float64, q.cols)
	for i := q.cols - 1; i >= 0; i-- {
		sum := qtb[i]
		for j := i + 1; j < q.cols; j++ {
			sum -= q.r.At(i, j) * x[j]
		}
		d := q.r.At(i, i)
		if math.Abs(d) < q.tol {
			return nil, fmt.Errorf("diagonal %d: %w", i, ErrSingular)
		}
		x[i] = sum / d
	}
	return x, nil
}
