package cluster

import (
	"sync"

	"atm/internal/timeseries"
)

// approxScratch pools the working buffers of one DTWMatrixApprox call
// (normalized series, envelope arrays, per-pair lower bounds), so
// repeated matrix builds — every research step of a rolling run —
// stop allocating fresh slices per call.
type approxScratch struct {
	norm         []timeseries.Series
	lower, upper [][]float64
	back         []float64
	lbs          []float64
	sorted       []float64
}

var approxPool = sync.Pool{New: func() any { return new(approxScratch) }}

// views returns n normalized-series, lower-envelope and upper-envelope
// slices of length m, backed by one pooled array.
func (sc *approxScratch) views(n, m int) (norm []timeseries.Series, lower, upper [][]float64) {
	if cap(sc.norm) < n {
		sc.norm = make([]timeseries.Series, n)
		sc.lower = make([][]float64, n)
		sc.upper = make([][]float64, n)
	}
	norm, lower, upper = sc.norm[:n], sc.lower[:n], sc.upper[:n]
	if cap(sc.back) < 3*n*m {
		sc.back = make([]float64, 3*n*m)
	}
	back := sc.back[:3*n*m]
	for i := 0; i < n; i++ {
		norm[i], back = back[:m:m], back[m:]
		lower[i], back = back[:m:m], back[m:]
		upper[i], back = back[:m:m], back[m:]
	}
	return norm, lower, upper
}

// normalizeInto writes s.Normalize() into dst (same arithmetic, same
// values, no allocation).
func normalizeInto(dst []float64, s timeseries.Series) {
	m, sd := s.Mean(), s.Std()
	for i, v := range s {
		dst[i] = zscore(v, m, sd)
	}
}

// bounds returns a pooled slice for the per-pair lower bounds.
func (sc *approxScratch) bounds(pairs int) []float64 {
	if cap(sc.lbs) < pairs {
		sc.lbs = make([]float64, pairs)
	}
	return sc.lbs[:pairs]
}

// zscore applies the Normalize transform for precomputed moments.
func zscore(v, mean, sd float64) float64 {
	if sd > 0 {
		return (v - mean) / sd
	}
	return v - mean
}
