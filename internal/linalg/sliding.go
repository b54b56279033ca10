package linalg

import (
	"fmt"
	"math"
)

// This file holds the incremental window-roll kernels: rank-1 Cholesky
// up/downdates and a SlidingGram that maintains X'X and X'y as one
// sample row enters and one leaves a rolling window. Together they
// turn a per-window least-squares refit from O(n·p²) (rebuild the
// design matrix, Gram and factorization) into O(p²) per rolled sample.
// The from-scratch Gram/CholeskyDecompose path remains the reference;
// callers fall back to it whenever a downdate breaks down.

// scratch returns a p-length work vector owned by the factor, so the
// up/downdate recurrences and SolveInto never allocate. The factor is
// not safe for concurrent use anyway (it is mutated in place), so a
// single buffer suffices.
func (c *Cholesky) scratch() []float64 {
	p := c.l.rows
	if cap(c.work) < p {
		c.work = make([]float64, p)
	}
	return c.work[:p]
}

// Update applies the rank-1 update G + x·x' to the cached factor in
// place using the classic Givens-rotation recurrence (LINPACK dchud):
// O(p²), no allocation after the first call. x is not modified.
func (c *Cholesky) Update(x []float64) error {
	p := c.l.rows
	if len(x) != p {
		return fmt.Errorf("cholesky update %dx%d with %d-vector: %w", p, p, len(x), ErrShape)
	}
	w := c.scratch()
	copy(w, x)
	l := c.l
	d := l.data
	for k := 0; k < p; k++ {
		lkk := d[k*p+k]
		wk := w[k]
		r := math.Sqrt(lkk*lkk + wk*wk)
		cth := r / lkk
		sth := wk / lkk
		d[k*p+k] = r
		for i := k + 1; i < p; i++ {
			lik := (d[i*p+k] + sth*w[i]) / cth
			d[i*p+k] = lik
			w[i] = cth*w[i] - sth*lik
		}
	}
	return nil
}

// Downdate applies the rank-1 downdate G - x·x' in place (LINPACK
// dchdd). When the downdated matrix is no longer safely positive
// definite the recurrence breaks down and ErrSingular is returned; the
// factor is then corrupted and the caller must discard it and refactor
// from scratch (the retained reference path). x is not modified.
func (c *Cholesky) Downdate(x []float64) error {
	p := c.l.rows
	if len(x) != p {
		return fmt.Errorf("cholesky downdate %dx%d with %d-vector: %w", p, p, len(x), ErrShape)
	}
	w := c.scratch()
	copy(w, x)
	l := c.l
	d := l.data
	for k := 0; k < p; k++ {
		lkk := d[k*p+k]
		wk := w[k]
		v := (lkk - wk) * (lkk + wk) // lkk² - wk², factored for accuracy
		if v <= 0 {
			return fmt.Errorf("cholesky downdate pivot %d: %w", k, ErrSingular)
		}
		r := math.Sqrt(v)
		cth := r / lkk
		sth := wk / lkk
		d[k*p+k] = r
		for i := k + 1; i < p; i++ {
			lik := (d[i*p+k] - sth*w[i]) / cth
			d[i*p+k] = lik
			w[i] = cth*w[i] - sth*lik
		}
	}
	return nil
}

// SolveInto is Solve writing into dst (grown as needed), allocating
// nothing when cap(dst) >= p. The forward-substitution intermediate
// reuses the factor's scratch buffer.
func (c *Cholesky) SolveInto(dst, b []float64) ([]float64, error) {
	p := c.l.rows
	if len(b) != p {
		return nil, fmt.Errorf("cholesky solve %dx%d with %d-vector: %w", p, p, len(b), ErrShape)
	}
	if cap(dst) < p {
		dst = make([]float64, p)
	}
	dst = dst[:p]
	l := c.l
	d := l.data
	y := c.scratch()
	for i := 0; i < p; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= d[i*p+k] * y[k]
		}
		y[i] = s / d[i*p+i]
	}
	for i := p - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < p; k++ {
			s -= d[k*p+i] * dst[k]
		}
		dst[i] = s / d[i*p+i]
	}
	return dst, nil
}

// SlidingGram maintains the normal-equation accumulators of a rolling
// least-squares window: G = X'X, per-target X'y, Σy and Σy² for each
// target, and the row count n. Push adds one sample row (rank-1 update
// G += r·r'), Pop removes one (G -= r·r'); both are O(p²·targets).
// Rows include whatever columns the caller's design uses (typically a
// leading intercept 1).
type SlidingGram struct {
	p       int
	targets int
	gram    *Matrix
	xty     [][]float64 // per-target X'y
	sumY    []float64
	sumY2   []float64
	n       int
}

// NewSlidingGram returns an empty accumulator for rows of p columns
// and the given number of regression targets.
func NewSlidingGram(p, targets int) *SlidingGram {
	if p <= 0 || targets < 0 {
		panic(fmt.Sprintf("linalg: sliding gram p=%d targets=%d", p, targets))
	}
	sg := &SlidingGram{
		p:       p,
		targets: targets,
		gram:    NewMatrix(p, p),
		xty:     make([][]float64, targets),
		sumY:    make([]float64, targets),
		sumY2:   make([]float64, targets),
	}
	for t := range sg.xty {
		sg.xty[t] = make([]float64, p)
	}
	return sg
}

// Push adds one sample: row is the p design columns, ys the target
// values (one per target).
func (sg *SlidingGram) Push(row, ys []float64) error {
	if err := sg.check(row, ys); err != nil {
		return err
	}
	sg.rankOne(row, 1)
	for t, y := range ys {
		x := sg.xty[t]
		for j, r := range row {
			x[j] += r * y
		}
		sg.sumY[t] += y
		sg.sumY2[t] += y * y
	}
	sg.n++
	return nil
}

// Pop removes one previously pushed sample. The caller must pass the
// exact row/target values that were pushed; the accumulators are plain
// sums, so removal is subtraction.
func (sg *SlidingGram) Pop(row, ys []float64) error {
	if err := sg.check(row, ys); err != nil {
		return err
	}
	if sg.n == 0 {
		return fmt.Errorf("linalg: pop from empty sliding gram: %w", ErrShape)
	}
	sg.rankOne(row, -1)
	for t, y := range ys {
		x := sg.xty[t]
		for j, r := range row {
			x[j] -= r * y
		}
		sg.sumY[t] -= y
		sg.sumY2[t] -= y * y
	}
	sg.n--
	return nil
}

func (sg *SlidingGram) check(row, ys []float64) error {
	if len(row) != sg.p {
		return fmt.Errorf("linalg: sliding gram row %d cols, want %d: %w", len(row), sg.p, ErrShape)
	}
	if len(ys) != sg.targets {
		return fmt.Errorf("linalg: sliding gram %d targets, want %d: %w", len(ys), sg.targets, ErrShape)
	}
	return nil
}

// rankOne adds sign * row·row' to the Gram matrix.
func (sg *SlidingGram) rankOne(row []float64, sign float64) {
	p := sg.p
	d := sg.gram.data
	for i := 0; i < p; i++ {
		ri := sign * row[i]
		base := i * p
		for j := 0; j < p; j++ {
			d[base+j] += ri * row[j]
		}
	}
}

// N returns the current row count.
func (sg *SlidingGram) N() int { return sg.n }

// Gram returns the live accumulator matrix. Callers must not mutate
// it; Clone before adding ridge terms.
func (sg *SlidingGram) Gram() *Matrix { return sg.gram }

// XtY returns the live X'y vector of target t (not a copy).
func (sg *SlidingGram) XtY(t int) []float64 { return sg.xty[t] }

// SumY returns Σy of target t.
func (sg *SlidingGram) SumY(t int) float64 { return sg.sumY[t] }

// SumY2 returns Σy² of target t.
func (sg *SlidingGram) SumY2(t int) float64 { return sg.sumY2[t] }
