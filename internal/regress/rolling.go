package regress

import (
	"errors"
	"fmt"

	"atm/internal/linalg"
	"atm/internal/timeseries"
)

// ErrRollingBroken indicates a RollingDesigner's factor broke down
// (downdating toward a near-singular window) and the designer must be
// rebuilt from scratch via the reference path.
var ErrRollingBroken = errors.New("regress: rolling designer broken")

// RollingDesigner is the incremental counterpart of Designer for a
// window that rolls one sample at a time: it maintains the
// normal-equation accumulators (linalg.SlidingGram) and a rank-1
// updated Cholesky factor of X'X, so re-fitting every target after a
// roll costs O(p²) per rolled sample plus O(p²) per target — instead
// of the from-scratch O(n·p²) design/QR rebuild.
//
// It solves the normal equations rather than replaying Designer's QR,
// so coefficients differ from the reference fit at the level of
// floating-point conditioning (≈1e-12 on well-conditioned windows, and
// bounded at 1e-9 by the property tests). Any numerical breakdown —
// a non-positive-definite Gram at build or a failed downdate during a
// roll — surfaces as an error and callers fall back to the retained
// from-scratch reference (Designer.FitRidge via spatial.Refit).
type RollingDesigner struct {
	p       int // predictor count (columns are p+1 with intercept)
	n       int // window length (constant across rolls)
	targets int

	sg   *linalg.SlidingGram
	chol *linalg.Cholesky

	broken bool

	beta   []float64 // solve destination
	oldRow []float64 // pop scratch
	newRow []float64 // push scratch
	oldYs  []float64
	newYs  []float64
	gb     []float64 // G·β scratch for the quadratic form
}

// NewRollingDesigner builds the accumulators from an initial window:
// predictors are the signature series, targets the dependent series
// (all of one shared length n, with n > len(predictors)+1, matching
// Designer's shape rule). The initial factorization costs O(n·p²+p³);
// every subsequent Roll costs O(p²·(1+targets)) per sample.
func NewRollingDesigner(predictors, targets []timeseries.Series) (*RollingDesigner, error) {
	p := len(predictors)
	if p == 0 {
		return nil, ErrNoPredictors
	}
	n := len(predictors[0])
	for j, x := range predictors {
		if len(x) != n {
			return nil, fmt.Errorf("regress: predictor %d has %d samples, want %d: %w",
				j, len(x), n, timeseries.ErrLengthMismatch)
		}
	}
	if n <= p+1 {
		return nil, fmt.Errorf("regress: %d samples for %d predictors: %w", n, p, linalg.ErrShape)
	}
	for j, y := range targets {
		if len(y) != n {
			return nil, fmt.Errorf("regress: target %d has %d samples, want %d: %w",
				j, len(y), n, timeseries.ErrLengthMismatch)
		}
	}
	cols := p + 1
	rd := &RollingDesigner{
		p:       p,
		n:       n,
		targets: len(targets),
		sg:      linalg.NewSlidingGram(cols, len(targets)),
		beta:    make([]float64, cols),
		oldRow:  make([]float64, cols),
		newRow:  make([]float64, cols),
		oldYs:   make([]float64, len(targets)),
		newYs:   make([]float64, len(targets)),
		gb:      make([]float64, cols),
	}
	for i := 0; i < n; i++ {
		rd.fillRow(rd.newRow, rd.newYs, predictors, targets, i)
		if err := rd.sg.Push(rd.newRow, rd.newYs); err != nil {
			return nil, err
		}
	}
	chol, err := linalg.CholeskyDecompose(rd.sg.Gram())
	if err != nil {
		return nil, err // singular window: incremental path unavailable
	}
	rd.chol = chol
	return rd, nil
}

// fillRow materializes sample i as an intercept-augmented design row
// plus the per-target values.
func (rd *RollingDesigner) fillRow(row, ys []float64, predictors, targets []timeseries.Series, i int) {
	row[0] = 1
	for j, x := range predictors {
		row[j+1] = x[i]
	}
	for j, y := range targets {
		ys[j] = y[i]
	}
}

// Roll advances the window by one sample: oldPredictors/oldTargets
// supply the values of the sample leaving the window (their element
// [oldIdx]), newPredictors/newTargets the sample entering ([newIdx]).
// The series slices must be ordered exactly as at construction. On a
// downdate breakdown the designer is marked broken and every later
// call fails with ErrRollingBroken until it is rebuilt.
func (rd *RollingDesigner) Roll(
	oldPredictors, oldTargets []timeseries.Series, oldIdx int,
	newPredictors, newTargets []timeseries.Series, newIdx int,
) error {
	if rd.broken {
		return ErrRollingBroken
	}
	rd.fillRow(rd.oldRow, rd.oldYs, oldPredictors, oldTargets, oldIdx)
	rd.fillRow(rd.newRow, rd.newYs, newPredictors, newTargets, newIdx)
	if err := rd.sg.Push(rd.newRow, rd.newYs); err != nil {
		return err
	}
	if err := rd.chol.Update(rd.newRow); err != nil {
		rd.broken = true
		return fmt.Errorf("%w: %w", ErrRollingBroken, err)
	}
	if err := rd.chol.Downdate(rd.oldRow); err != nil {
		// The factor is corrupted mid-recurrence; only a rebuild helps.
		rd.broken = true
		return fmt.Errorf("%w: %w", ErrRollingBroken, err)
	}
	return rd.sg.Pop(rd.oldRow, rd.oldYs)
}

// FitInto solves the normal equations for target t into f, reusing
// f's coefficient buffer — zero allocations once the buffer has grown.
// R² is computed incrementally from the accumulators:
//
//	ssRes = Σy² − 2β'(X'y) + β'Gβ,  ssTot = Σy² − n·ȳ²
//
// mirroring the reference r2()'s edge rules (constant target → 1 for
// an exact fit else 0; clamped into [0, 1]).
func (rd *RollingDesigner) FitInto(t int, f *Fit) error {
	if rd.broken {
		return ErrRollingBroken
	}
	if t < 0 || t >= rd.targets {
		return fmt.Errorf("regress: rolling fit target %d of %d: %w", t, rd.targets, linalg.ErrShape)
	}
	xty := rd.sg.XtY(t)
	beta, err := rd.chol.SolveInto(rd.beta, xty)
	if err != nil {
		return err
	}
	rd.beta = beta
	f.Intercept = beta[0]
	f.Coef = append(f.Coef[:0], beta[1:]...)

	g := rd.sg.Gram()
	cols := rd.p + 1
	var btXty, btGb float64
	for i := 0; i < cols; i++ {
		btXty += beta[i] * xty[i]
		var s float64
		for j := 0; j < cols; j++ {
			s += g.At(i, j) * beta[j]
		}
		rd.gb[i] = s
		btGb += beta[i] * s
	}
	n := float64(rd.sg.N())
	sumY := rd.sg.SumY(t)
	ssRes := rd.sg.SumY2(t) - 2*btXty + btGb
	ssTot := rd.sg.SumY2(t) - sumY*sumY/n
	// Accumulator cancellation can leave tiny negative residues where
	// the direct sums would be exactly zero.
	if ssRes < 0 {
		ssRes = 0
	}
	if ssTot <= 0 {
		if ssRes == 0 {
			f.R2 = 1
		} else {
			f.R2 = 0
		}
		return nil
	}
	r := 1 - ssRes/ssTot
	switch {
	case r < 0:
		r = 0
	case r > 1:
		r = 1
	}
	f.R2 = r
	return nil
}
