package cluster

import (
	"math"
	"sync"

	"atm/internal/timeseries"
)

// Helpers only the tests need: the serving path runs the matrices at
// their default worker count and never computes a single pair outside
// them.

// DTW is the unconstrained DTWWindow.
func DTW(p, q timeseries.Series) float64 {
	return DTWWindow(p, q, -1)
}

// Equal reports whether o has the same size and bit-identical entries.
func (d *DistMatrix) Equal(o *DistMatrix) bool {
	if d.n != o.n {
		return false
	}
	for i, v := range d.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// WithWorkers bounds the number of concurrent workers computing matrix
// cells. n <= 0 (the default) uses one worker per core. One worker
// reproduces the sequential order exactly; results are bit-identical at
// any worker count because every cell is an independent computation.
func WithWorkers(n int) MatrixOption {
	return func(c *matrixConfig) { c.workers = n }
}

// scratchPool recycles dtwScratch values across DTWWindow calls so
// single-pair distances are allocation-free in steady state.
var scratchPool = sync.Pool{New: func() any { return new(dtwScratch) }}

// DTWWindow returns the dynamic-time-warping dissimilarity between two
// series using squared pointwise distance d(p_i, q_j) = (p_i - q_j)^2
// and the standard cumulative recurrence (paper Eq. 2), constrained to
// a Sakoe-Chiba band of half-width w (|i-j| <= w). A negative w means
// unconstrained. The band is widened to at least |len(p)-len(q)| so a
// path always exists. Either series being empty yields +Inf (no
// warping path exists); a NaN or infinite sample in either yields NaN.
func DTWWindow(p, q timeseries.Series, w int) float64 {
	if checkFinite(p) != nil || checkFinite(q) != nil {
		return math.NaN()
	}
	sc := scratchPool.Get().(*dtwScratch)
	v, _ := dtwKernel(p, q, w, math.Inf(1), sc)
	scratchPool.Put(sc)
	return v
}
