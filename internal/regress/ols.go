// Package regress provides ordinary least squares fitting, variance
// inflation factors and backward stepwise elimination — the tools ATM's
// signature search step 2 uses to detect and remove multicollinearity
// among an initial signature set (paper Section III-A, Step 2), and
// which the spatial models use to express each dependent series as a
// linear combination of signature series (paper Eq. 1).
package regress

import (
	"errors"
	"fmt"

	"atm/internal/timeseries"
)

// ErrNoPredictors indicates an OLS fit was requested with an empty
// predictor set.
var ErrNoPredictors = errors.New("regress: no predictors")

// Fit is a fitted linear model y ≈ Intercept + Σ Coef[j]·X[j].
type Fit struct {
	// Intercept is the constant term.
	Intercept float64
	// Coef holds one coefficient per predictor, in input order.
	Coef []float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
}

// OLS fits y on the predictor series by ordinary least squares with an
// intercept. All series must share y's length, and there must be more
// samples than predictors+1. A numerically rank-deficient predictor set
// surfaces as linalg.ErrSingular. Callers fitting many targets against
// one predictor set should build a Designer once and call Fit per
// target — the results are identical.
func OLS(y timeseries.Series, predictors []timeseries.Series) (*Fit, error) {
	d, err := NewDesigner(predictors)
	if err != nil {
		return nil, err
	}
	return d.Fit(y)
}

// Apply evaluates the model on predictor series (which must match the
// fitted predictor count; panics otherwise, as this is programmer
// error).
func (f *Fit) Apply(predictors []timeseries.Series) timeseries.Series {
	return f.ApplyInto(nil, predictors)
}

// ApplyInto is Apply writing into dst (grown as needed): zero
// allocations once dst has capacity for the predictors' length.
func (f *Fit) ApplyInto(dst timeseries.Series, predictors []timeseries.Series) timeseries.Series {
	if len(predictors) != len(f.Coef) {
		panic(fmt.Sprintf("regress: apply with %d predictors, fitted %d", len(predictors), len(f.Coef)))
	}
	if len(predictors) == 0 {
		return dst[:0]
	}
	n := len(predictors[0])
	if cap(dst) < n {
		dst = make(timeseries.Series, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		v := f.Intercept
		for j, x := range predictors {
			v += f.Coef[j] * x[i]
		}
		dst[i] = v
	}
	return dst
}

// r2 computes the coefficient of determination of fitted against
// actual. A constant actual series yields 1 when the fit is exact and
// 0 otherwise.
func r2(actual, fitted timeseries.Series) float64 {
	m := actual.Mean()
	var ssTot, ssRes float64
	for i := range actual {
		d := actual[i] - m
		ssTot += d * d
		e := actual[i] - fitted[i]
		ssRes += e * e
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	r := 1 - ssRes/ssTot
	if r < 0 {
		r = 0
	}
	return r
}

// DefaultRidgeLambda is the regularization strength used by the
// Ridge fallbacks when OLS reports a singular predictor set.
const DefaultRidgeLambda = 1e-6

// OLSRidge fits like OLS but falls back to ridge regression with the
// given lambda when the predictors are (numerically) collinear, so a
// usable model is always produced. The paper's pipelines prefer plain
// OLS — collinearity is supposed to be removed by stepwise regression —
// but forecasting code paths need a fit even for degenerate inputs.
// Both paths share the Designer's one design-matrix construction.
func OLSRidge(y timeseries.Series, predictors []timeseries.Series, lambda float64) (*Fit, error) {
	d, err := NewDesigner(predictors)
	if err != nil {
		return nil, err
	}
	return d.FitRidge(y, lambda)
}
