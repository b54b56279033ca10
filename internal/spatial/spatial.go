// Package spatial implements ATM's central contribution: the
// signature-series search and the spatial prediction models (paper
// Section III). Given the M×N demand series of one physical box (M
// co-located VMs × N resources), it selects a small signature subset
// Ωs via time-series clustering (DTW or CBC) followed by VIF-driven
// stepwise regression, and fits every remaining dependent series in Ωd
// as a linear combination of the signatures (Eq. 1). Predicting the box
// then only requires running an expensive temporal model on the
// signatures; dependents follow by inexpensive linear transforms.
package spatial

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"atm/internal/cluster"
	"atm/internal/obs"
	"atm/internal/regress"
	"atm/internal/timeseries"
)

// Method selects the step-1 clustering technique.
type Method int

// Clustering methods for the signature search.
const (
	// MethodDTW clusters by dynamic-time-warping distance with
	// silhouette-selected hierarchical clustering.
	MethodDTW Method = iota
	// MethodCBC clusters by the paper's correlation-based scheme.
	MethodCBC
	// MethodFeatures clusters by k-means over extracted series
	// features (moments, autocorrelations, trend/seasonal strengths) —
	// the feature-based route the paper cites as the alternative to
	// operating on raw series.
	MethodFeatures
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodDTW:
		return "dtw"
	case MethodCBC:
		return "cbc"
	case MethodFeatures:
		return "features"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config parameterizes the signature search. The zero value selects
// DTW with the paper's defaults.
type Config struct {
	// Method is the step-1 clustering technique.
	Method Method
	// RhoTh is the CBC correlation threshold; 0 means
	// cluster.DefaultRhoTh (0.7).
	RhoTh float64
	// VIFCutoff is the step-2 multicollinearity threshold; 0 means
	// regress.DefaultVIFCutoff (4).
	VIFCutoff float64
	// DTWWindow is the Sakoe-Chiba half-width for DTW; 0 means
	// unconstrained (the paper's formulation).
	DTWWindow int
	// DTWApprox selects the LB_Keogh-pruned distance matrix
	// (cluster.DTWSearchApprox) for MethodDTW: far pairs keep an
	// admissible lower bound instead of the exact distance, roughly
	// halving the quadratic DTW work. Exact by default.
	DTWApprox bool
	// Period is the seasonal period in samples, used by
	// MethodFeatures for its seasonal features (0 disables them).
	Period int
	// SkipStepwise disables step 2, leaving the clustering-only
	// signature set. Used by the paper's Figure 6 ablation.
	SkipStepwise bool
}

func (c Config) rhoTh() float64 {
	if c.RhoTh == 0 {
		return cluster.DefaultRhoTh
	}
	return c.RhoTh
}

func (c Config) vifCutoff() float64 {
	if c.VIFCutoff == 0 {
		return regress.DefaultVIFCutoff
	}
	return c.VIFCutoff
}

func (c Config) dtwWindow() int {
	if c.DTWWindow == 0 {
		return -1
	}
	return c.DTWWindow
}

// Model is a fitted spatial model for one box: the signature subset and
// one linear fit per dependent series.
type Model struct {
	// N is the total number of series the model was built from.
	N int
	// ClusterK is the number of clusters found by step 1.
	ClusterK int
	// InitialSignatures is the step-1 signature set (one medoid or
	// top-ranked series per cluster), in increasing index order.
	InitialSignatures []int
	// Signatures is the final signature set after step 2 (or the
	// initial set when stepwise was skipped), in increasing index
	// order.
	Signatures []int
	// Dependents maps each dependent series index to its linear fit on
	// the signature series (predictors in Signatures order).
	Dependents map[int]*regress.Fit
}

// Clone returns a deep copy of the model. Rolling pipelines mutate
// their live model's fits in place (spatial.Roller), so retained
// results snapshot via Clone.
func (m *Model) Clone() *Model {
	out := &Model{
		N:                 m.N,
		ClusterK:          m.ClusterK,
		InitialSignatures: append([]int(nil), m.InitialSignatures...),
		Signatures:        append([]int(nil), m.Signatures...),
	}
	if m.Dependents != nil {
		out.Dependents = make(map[int]*regress.Fit, len(m.Dependents))
		for idx, fit := range m.Dependents {
			out.Dependents[idx] = &regress.Fit{
				Intercept: fit.Intercept,
				Coef:      append([]float64(nil), fit.Coef...),
				R2:        fit.R2,
			}
		}
	}
	return out
}

// ErrNoSeries indicates Search was called without any series.
var ErrNoSeries = errors.New("spatial: no series")

// Search runs the two-step signature-set search on the box's series and
// fits the spatial models of every dependent series (paper Fig. 4).
func Search(series []timeseries.Series, cfg Config) (*Model, error) {
	return SearchContext(context.Background(), series, cfg)
}

// SearchContext is Search with tracing: when the context carries an
// obs.Tracer, the search emits a "spatial.search" span with child
// spans for the clustering step, the stepwise VIF elimination, and the
// dependent fits. Without a tracer it behaves exactly like Search.
func SearchContext(ctx context.Context, series []timeseries.Series, cfg Config) (_ *Model, err error) {
	n := len(series)
	if n == 0 {
		return nil, ErrNoSeries
	}
	ctx, span := obs.StartSpan(ctx, "spatial.search")
	defer span.End()
	span.SetAttr("series", n)
	span.SetAttr("method", cfg.Method.String())

	// Step 1: time series clustering.
	var res cluster.Result
	_, cspan := obs.StartSpan(ctx, "spatial.cluster")
	switch cfg.Method {
	case MethodDTW:
		if cfg.DTWApprox {
			res, err = cluster.DTWSearchApprox(series, cfg.dtwWindow(), 0)
		} else {
			res, err = cluster.DTWSearch(series, cfg.dtwWindow())
		}
	case MethodCBC:
		res, err = cluster.CBC(series, cfg.rhoTh())
	case MethodFeatures:
		res, err = cluster.FeatureSearch(series, cfg.Period)
	default:
		cspan.End()
		return nil, fmt.Errorf("spatial: unknown method %v", cfg.Method)
	}
	cspan.SetAttr("clusters", res.K)
	cspan.End()
	if err != nil {
		return nil, fmt.Errorf("spatial: step-1 clustering: %w", err)
	}

	m := &Model{
		N:                 n,
		ClusterK:          res.K,
		InitialSignatures: append([]int(nil), res.Signatures...),
	}

	// Step 2: multicollinearity removal via VIF + stepwise regression.
	final := append([]int(nil), res.Signatures...)
	if !cfg.SkipStepwise && len(final) >= 2 {
		_, sspan := obs.StartSpan(ctx, "spatial.stepwise_vif")
		sigSeries := make([]timeseries.Series, len(final))
		for i, idx := range final {
			sigSeries[i] = series[idx]
		}
		keep, removed, err := regress.StepwiseVIF(sigSeries, cfg.vifCutoff())
		sspan.SetAttr("eliminated", len(removed))
		sspan.End()
		if err != nil {
			return nil, fmt.Errorf("spatial: step-2 stepwise: %w", err)
		}
		reduced := make([]int, len(keep))
		for i, k := range keep {
			reduced[i] = final[k]
		}
		final = reduced
	}
	sort.Ints(final)
	m.Signatures = final
	span.SetAttr("signatures", len(final))

	// Fit every dependent on the final signature set.
	m.Dependents, err = fitDependents(ctx, series, final)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// fitDependents fits every non-signature series as a linear model of
// the signature series (indices in final). All dependents share one
// predictor set, so the design matrix is built and QR-factored once
// through a Designer; each dependent costs one solve. The fits are
// bit-identical to per-dependent OLSRidge calls. Shared by the full
// Search and by Refit, so a refit reproduces exactly the fits a fresh
// search over the same signature set would produce.
func fitDependents(ctx context.Context, series []timeseries.Series, final []int) (map[int]*regress.Fit, error) {
	_, fspan := obs.StartSpan(ctx, "spatial.fit_dependents")
	defer fspan.End()
	sigSeries := make([]timeseries.Series, len(final))
	isSig := make(map[int]bool, len(final))
	for i, idx := range final {
		sigSeries[i] = series[idx]
		isSig[idx] = true
	}
	deps := make(map[int]*regress.Fit)
	var designer *regress.Designer
	var err error
	for i := 0; i < len(series); i++ {
		if isSig[i] {
			continue
		}
		if designer == nil {
			designer, err = regress.NewDesigner(sigSeries)
			if err != nil {
				return nil, fmt.Errorf("spatial: fit dependent %d: %w", i, err)
			}
		}
		fit, err := designer.FitRidge(series[i], regress.DefaultRidgeLambda)
		if err != nil {
			return nil, fmt.Errorf("spatial: fit dependent %d: %w", i, err)
		}
		deps[i] = fit
	}
	fspan.SetAttr("dependents", len(deps))
	return deps, nil
}

// RefitContext is Refit with tracing: under an obs.Tracer it emits a
// "spatial.refit" span wrapping the dependent fits.
func RefitContext(ctx context.Context, series []timeseries.Series, signatures []int) (*Model, error) {
	n := len(series)
	if n == 0 {
		return nil, ErrNoSeries
	}
	if len(signatures) == 0 {
		return nil, fmt.Errorf("spatial: refit with empty signature set")
	}
	final := append([]int(nil), signatures...)
	sort.Ints(final)
	for i, idx := range final {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("spatial: refit signature %d out of range [0,%d)", idx, n)
		}
		if i > 0 && final[i-1] == idx {
			return nil, fmt.Errorf("spatial: refit signature %d duplicated", idx)
		}
	}
	ctx, span := obs.StartSpan(ctx, "spatial.refit")
	defer span.End()
	span.SetAttr("series", n)
	span.SetAttr("signatures", len(final))
	m := &Model{
		N:                 n,
		ClusterK:          len(final),
		InitialSignatures: append([]int(nil), final...),
		Signatures:        final,
	}
	var err error
	m.Dependents, err = fitDependents(ctx, series, final)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Ratio returns the signature-set size as a fraction of all series —
// the paper's "percent of signature series out of the total demand
// series" metric (Figures 6a, 7a).
func (m *Model) Ratio() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(len(m.Signatures)) / float64(m.N)
}

// Reconstruct produces a full set of N series given values for the
// signature series (in Signatures order): signatures pass through
// verbatim, dependents are computed from their linear fits. This is
// how ATM turns temporal forecasts of the few signatures into
// forecasts for every series on the box.
func (m *Model) Reconstruct(sigValues []timeseries.Series) ([]timeseries.Series, error) {
	return m.ReconstructInto(make([]timeseries.Series, m.N), sigValues)
}

// ReconstructInto is Reconstruct writing into dst, which must hold
// m.N series headers; each is length-adjusted via append, so callers
// providing headers with enough capacity pay zero heap allocations.
func (m *Model) ReconstructInto(dst, sigValues []timeseries.Series) ([]timeseries.Series, error) {
	if len(sigValues) != len(m.Signatures) {
		return nil, fmt.Errorf("spatial: %d signature series given, model has %d",
			len(sigValues), len(m.Signatures))
	}
	if len(dst) != m.N {
		return nil, fmt.Errorf("spatial: reconstruct into %d series, model has %d", len(dst), m.N)
	}
	horizon := 0
	for i, s := range sigValues {
		if i == 0 {
			horizon = len(s)
		} else if len(s) != horizon {
			return nil, fmt.Errorf("spatial: signature %d has %d samples, want %d: %w",
				i, len(s), horizon, timeseries.ErrLengthMismatch)
		}
	}
	for i, idx := range m.Signatures {
		dst[idx] = append(dst[idx][:0], sigValues[i]...)
	}
	for idx, fit := range m.Dependents {
		dst[idx] = fit.ApplyInto(dst[idx][:0], sigValues)
	}
	return dst, nil
}

// Fitted returns the in-sample fitted values for every series: the
// original values for signatures and the linear-model fits for
// dependents. It is the quantity behind the paper's "effectiveness of
// spatial models" APE numbers (Figure 6b), which exclude temporal
// prediction error.
func (m *Model) Fitted(series []timeseries.Series) ([]timeseries.Series, error) {
	if len(series) != m.N {
		return nil, fmt.Errorf("spatial: %d series given, model built on %d", len(series), m.N)
	}
	sigValues := make([]timeseries.Series, len(m.Signatures))
	for i, idx := range m.Signatures {
		sigValues[i] = series[idx]
	}
	return m.Reconstruct(sigValues)
}

// FitError returns the mean APE of the spatial fit across all
// dependent series of the box (signatures fit exactly and are
// excluded). A box whose every series is a signature has error 0.
func (m *Model) FitError(series []timeseries.Series) (float64, error) {
	fitted, err := m.Fitted(series)
	if err != nil {
		return 0, err
	}
	var sum float64
	n := 0
	for idx := range m.Dependents {
		e, err := timeseries.MAPE(series[idx], fitted[idx])
		if err != nil {
			return 0, err
		}
		sum += e
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}
