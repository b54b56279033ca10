package regress

import (
	"errors"
	"fmt"
	"math"

	"atm/internal/linalg"
	"atm/internal/obs"
	"atm/internal/timeseries"
)

// Stepwise-elimination metrics: how many signature candidates the
// VIF step actually removes, and how often degenerate input pushes a
// call off the Gram-cached fast path onto the naive O(T·p³) sweep (a
// spike there means the workload is feeding collinear or constant
// series and the advertised speedup is gone).
var (
	vifEliminations = obs.Default().Counter("atm_vif_eliminations_total",
		"Series removed by stepwise VIF backward elimination.")
	vifFallbacks = obs.Default().Counter("atm_vif_fallbacks_total",
		"VIF/StepwiseVIF calls that fell back to the naive path on degenerate input.")
)

// DefaultVIFCutoff is the rule-of-practice threshold above which a
// series is considered collinear with the rest (paper: "a VIF greater
// than 4 indicates a dependency").
const DefaultVIFCutoff = 4

// VIF returns the variance inflation factor of each series when
// regressed on all the others: VIF_i = 1 / (1 - R_i^2). A singular
// regression (series exactly expressible by the others) yields +Inf.
// With fewer than two series every factor is 1 (no collinearity is
// possible).
//
// Rather than running p independent OLS fits (O(T·p³) total), VIF uses
// the classical identity VIF_i = [R⁻¹]_ii where R is the p×p
// correlation matrix of the series: one pass to accumulate R, one
// Cholesky factorization and one inverse — O(T·p² + p³). Degenerate
// inputs (constant series, length mismatches, too few samples, a
// singular correlation matrix) fall back to vifNaive so error and ±Inf
// semantics are exactly those of the per-fit definition.
func VIF(series []timeseries.Series) ([]float64, error) {
	p := len(series)
	if p < 2 {
		out := make([]float64, p)
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	st, ok := newVIFState(series)
	if !ok {
		vifFallbacks.Inc()
		return vifNaive(series)
	}
	out := make([]float64, p)
	for i := 0; i < p; i++ {
		out[i] = clampVIF(st.inv.At(i, i))
	}
	return out, nil
}

// StepwiseVIF performs backward elimination: while any series has a
// VIF above the cutoff, the series with the largest VIF is removed (it
// is representable as a linear combination of the remaining ones). It
// returns the indices (into the input slice) that survive, in
// increasing order, and the removed indices in elimination order. At
// least one series always survives.
//
// The correlation matrix is factored once; each elimination round
// reads the current VIFs off the diagonal of the cached inverse and
// removes the worst series with a Schur-complement downdate
// A'_ij = A_ij − A_iw·A_wj/A_ww — O(p²) per round instead of a fresh
// O(T·p³) VIF sweep. Degenerate inputs fall back to
// stepwiseVIFNaive.
func StepwiseVIF(series []timeseries.Series, cutoff float64) (keep, removed []int, err error) {
	if len(series) < 2 {
		keep = make([]int, len(series))
		for i := range keep {
			keep[i] = i
		}
		return keep, nil, nil
	}
	st, ok := newVIFState(series)
	if !ok {
		vifFallbacks.Inc()
		keep, removed, err = stepwiseVIFNaive(series, cutoff)
		vifEliminations.Add(float64(len(removed)))
		return keep, removed, err
	}
	idx := make([]int, len(series))
	for i := range idx {
		idx[i] = i
	}
	a := st.inv
	for len(idx) >= 2 {
		// Worst-series selection mirrors the naive scan exactly: strict
		// improvement, first maximum wins. The fast path never produces
		// +Inf (the factorization succeeded), so the Inf tie-break of
		// the naive scan cannot trigger.
		worst, worstVIF := -1, cutoff
		for i := range idx {
			if v := clampVIF(a.At(i, i)); v > worstVIF {
				worst, worstVIF = i, v
			}
		}
		if worst == -1 {
			break
		}
		removed = append(removed, idx[worst])
		idx = append(idx[:worst], idx[worst+1:]...)
		a = downdateInverse(a, worst)
	}
	vifEliminations.Add(float64(len(removed)))
	return idx, removed, nil
}

// vifState is the shared setup of the fast VIF paths: the inverse of
// the correlation matrix of the input series.
type vifState struct {
	inv *linalg.Matrix
}

// newVIFState validates the series set and inverts its correlation
// matrix. ok is false whenever the fast path cannot be trusted to
// reproduce the naive semantics: mismatched lengths, too few samples
// for the naive OLS fits, non-finite values, a constant series, or a
// numerically singular correlation matrix.
func newVIFState(series []timeseries.Series) (*vifState, bool) {
	p := len(series)
	t := len(series[0])
	// The naive path fits each series on the p-1 others and needs
	// T > (p-1)+1 samples; at or below that it errors (or, for exact
	// collinearity, reports +Inf). Let the naive path decide.
	if t <= p {
		return nil, false
	}
	for _, s := range series {
		if len(s) != t {
			return nil, false
		}
	}
	means := make([]float64, p)
	scale := make([]float64, p) // 1/sqrt(Σ(x-mean)²)
	for i, s := range series {
		var sum float64
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
			sum += v
		}
		means[i] = sum / float64(t)
		var ss float64
		for _, v := range s {
			d := v - means[i]
			ss += d * d
		}
		if ss <= 0 {
			return nil, false // constant series: intercept-collinear
		}
		scale[i] = 1 / math.Sqrt(ss)
	}
	r := linalg.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		r.Set(i, i, 1)
		for j := i + 1; j < p; j++ {
			var s float64
			for k := 0; k < t; k++ {
				s += (series[i][k] - means[i]) * (series[j][k] - means[j])
			}
			c := s * scale[i] * scale[j]
			r.Set(i, j, c)
			r.Set(j, i, c)
		}
	}
	ch, err := linalg.CholeskyDecompose(r)
	if err != nil {
		return nil, false // (near-)exact collinearity: naive ±Inf semantics
	}
	return &vifState{inv: ch.Inverse()}, true
}

// clampVIF floors a diagonal of the inverse correlation matrix at 1:
// the naive definition 1/(1-R²) with R² clamped to [0,1) can never dip
// below 1, but the factored diagonal can by a few ulps.
func clampVIF(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// downdateInverse removes series w from a cached inverse correlation
// matrix via the Schur complement: if A = R⁻¹, then deleting row and
// column w from R has inverse A'_ij = A_ij − A_iw·A_wj / A_ww over the
// remaining indices.
func downdateInverse(a *linalg.Matrix, w int) *linalg.Matrix {
	p := a.Rows()
	out := linalg.NewMatrix(p-1, p-1)
	pivot := a.At(w, w)
	for i, oi := 0, 0; i < p; i++ {
		if i == w {
			continue
		}
		for j, oj := 0, 0; j < p; j++ {
			if j == w {
				continue
			}
			out.Set(oi, oj, a.At(i, j)-a.At(i, w)*a.At(w, j)/pivot)
			oj++
		}
		oi++
	}
	return out
}

// vifNaive and stepwiseVIFNaive are the per-fit definition — p
// independent OLS fits, each regressing one series on all the others —
// and the fallback of VIF and StepwiseVIF (counted by
// atm_vif_fallbacks_total). The fallback exists because the factored
// path is only defined for well-posed input: on constant series,
// mismatched lengths, too few samples or a singular correlation
// matrix, only the per-fit definition yields the errors and +Inf
// factors the callers rely on. The tests also hold the factored path
// equal to them.
func vifNaive(series []timeseries.Series) ([]float64, error) {
	n := len(series)
	out := make([]float64, n)
	if n < 2 {
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	others := make([]timeseries.Series, 0, n-1)
	for i := 0; i < n; i++ {
		others = others[:0]
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, series[j])
			}
		}
		fit, err := OLS(series[i], others)
		switch {
		case errors.Is(err, linalg.ErrSingular):
			out[i] = math.Inf(1)
			continue
		case err != nil:
			return nil, fmt.Errorf("vif of series %d: %w", i, err)
		}
		if fit.R2 >= 1 {
			out[i] = math.Inf(1)
		} else {
			out[i] = 1 / (1 - fit.R2)
		}
	}
	return out, nil
}

// stepwiseVIFNaive recomputes a full vifNaive sweep per elimination
// round.
func stepwiseVIFNaive(series []timeseries.Series, cutoff float64) (keep, removed []int, err error) {
	idx := make([]int, len(series))
	for i := range idx {
		idx[i] = i
	}
	cur := make([]timeseries.Series, len(series))
	copy(cur, series)
	for len(cur) >= 2 {
		vifs, err := vifNaive(cur)
		if err != nil {
			return nil, nil, err
		}
		worst, worstVIF := -1, cutoff
		for i, v := range vifs {
			if v > worstVIF || (math.IsInf(v, 1) && !math.IsInf(worstVIF, 1)) {
				worst, worstVIF = i, v
			}
		}
		if worst == -1 {
			break
		}
		removed = append(removed, idx[worst])
		cur = append(cur[:worst], cur[worst+1:]...)
		idx = append(idx[:worst], idx[worst+1:]...)
	}
	return idx, removed, nil
}
