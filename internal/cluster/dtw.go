// Package cluster implements the two time-series clustering techniques
// ATM's signature search uses (paper Section III-A):
//
//   - Dynamic Time Warping distance with agglomerative hierarchical
//     clustering, the cluster count selected by the average silhouette
//     value, and the per-cluster series with the lowest average
//     dissimilarity taken as that cluster's signature.
//   - Correlation-Based Clustering (CBC), the paper's own scheme: rank
//     series by how many strong correlations (ρ > ρTh) they have, peel
//     off the topmost series together with everything strongly
//     correlated to it, repeat.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"atm/internal/obs"
	"atm/internal/parallel"
	"atm/internal/timeseries"
)

// dtwPairs counts matrix cells by outcome: "exact" ran the full DTW
// recurrence, "pruned" kept an LB_Keogh bound (skip or early abandon).
// The pruned/exact ratio is the live view of how much quadratic work
// the approximate matrix is actually saving. Incremented once per
// matrix call, so the per-pair hot loop carries zero metric cost.
var dtwPairs = obs.Default().CounterVec("atm_dtw_pairs_total",
	"DTW matrix pairs by outcome: exact recurrence vs LB-pruned.", "outcome")

// ErrSeriesLength indicates DTWMatrix was given series of unequal
// lengths. Box demand series are aligned windows of the same trace, so
// a length mismatch means the caller sliced them inconsistently; the
// old behaviour of silently warping mismatched series produced a
// degenerate (length-biased) matrix.
var ErrSeriesLength = errors.New("cluster: series length mismatch")

// BoundsError reports an out-of-range DistMatrix index.
type BoundsError struct {
	I, J, N int
}

// Error implements error.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("cluster: index (%d,%d) out of range for %d items", e.I, e.J, e.N)
}

// ErrNonFinite indicates a NaN (a trace gap) or infinite sample in the
// input of a distance matrix: there is no meaningful DTW distance to
// cluster on.
var ErrNonFinite = errors.New("cluster: non-finite sample")

// checkFinite returns ErrNonFinite if s holds a NaN or an infinity.
func checkFinite(s timeseries.Series) error {
	for t, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample %d is %v: %w", t, v, ErrNonFinite)
		}
	}
	return nil
}

// dtwScratch holds the per-call working memory of the DTW recurrence:
// one row of the cumulative-cost matrix as IEEE-754 bit patterns,
// updated in place. Pooled, so the kernel allocates nothing per pair.
type dtwScratch struct {
	row []uint64
}

const (
	// dtwRows is how many matrix rows advance together. A cell's
	// min+add is a ~10-cycle dependency chain through its left
	// neighbour; four skewed rows are four chains the CPU overlaps.
	dtwRows = 4
	// infBits is +Inf as an IEEE-754 bit pattern.
	infBits = 0x7FF0000000000000
)

// dtwCell returns one cumulative cost, d(x, y) + min(diag, up, left), as
// a bit pattern. Cumulative costs are sums of squares: never negative
// (nor -0) and, for finite input, never NaN, so the unsigned order of
// their bit patterns is the float order, +Inf included. The integer
// min compiles to conditional moves; the float one is two branches
// that random data mispredicts.
func dtwCell(x, y float64, diag, up, left uint64) uint64 {
	// y-x, not x-y: the square is bit-equal and the subtraction can
	// overwrite the freshly loaded y instead of a copy of x.
	d := y - x
	d *= d
	if up < diag {
		diag = up
	}
	if left < diag {
		diag = left
	}
	return math.Float64bits(d + math.Float64frombits(diag))
}

// dtwSweep is the per-row state of the rows advancing together: the
// row's sample, the last cost it computed (its next left neighbour),
// the cost above that one (its next diagonal) and its running minimum.
type dtwSweep struct {
	x               [dtwRows]float64
	left, diag, min [dtwRows]uint64
}

// run advances row r alone over columns [from, to]. row[c] holds the
// cost above column c on entry and row r's cost on return.
func (s *dtwSweep) run(r int, row []uint64, q timeseries.Series, from, to int) {
	x, left, diag, rowMin := s.x[r], s.left[r], s.diag[r], s.min[r]
	for c := from; c <= to; c++ {
		up := row[c]
		left = dtwCell(x, q[c-1], diag, up, left)
		diag, row[c] = up, left
		if left < rowMin {
			rowMin = left
		}
	}
	s.left[r], s.diag[r], s.min[r] = left, diag, rowMin
}

// skewed advances all dtwRows rows together, row r one column behind
// row r-1: at t, row r takes index t-r of the two equal-length views
// (costs, and the samples under them), overwriting the cost the row
// above left there one step earlier.
func (s *dtwSweep) skewed(row []uint64, q timeseries.Series) {
	x0, x1, x2, x3 := s.x[0], s.x[1], s.x[2], s.x[3]
	l0, l1, l2, l3 := s.left[0], s.left[1], s.left[2], s.left[3]
	d0, d1, d2, d3 := s.diag[0], s.diag[1], s.diag[2], s.diag[3]
	m0, m1, m2, m3 := s.min[0], s.min[1], s.min[2], s.min[3]
	row = row[:len(q)]
	for t := dtwRows - 1; t < len(q); t++ {
		up := row[t]
		l0 = dtwCell(x0, q[t], d0, up, l0)
		d0, row[t] = up, l0
		if l0 < m0 {
			m0 = l0
		}
		up = row[t-1]
		l1 = dtwCell(x1, q[t-1], d1, up, l1)
		d1, row[t-1] = up, l1
		if l1 < m1 {
			m1 = l1
		}
		up = row[t-2]
		l2 = dtwCell(x2, q[t-2], d2, up, l2)
		d2, row[t-2] = up, l2
		if l2 < m2 {
			m2 = l2
		}
		up = row[t-3]
		l3 = dtwCell(x3, q[t-3], d3, up, l3)
		d3, row[t-3] = up, l3
		if l3 < m3 {
			m3 = l3
		}
	}
	s.left = [dtwRows]uint64{l0, l1, l2, l3}
	s.diag = [dtwRows]uint64{d0, d1, d2, d3}
	s.min = [dtwRows]uint64{m0, m1, m2, m3}
}

// dtwKernel runs the DTW recurrence on caller-provided scratch. It
// performs no heap allocations once the scratch has grown to the
// series length. Samples must be finite (see dtwCell).
//
// The matrix is walked dtwRows rows at a time over one in-place cost
// row. Cells right of a row's band are never written, so the initial
// +Inf is still there when the band grows into them, and cells left of
// it are never read again: no per-row refill. In a block each row runs
// alone up to the column from which every row is inside its band, the
// rows advance together (skewed), and each finishes alone; a trailing
// block of fewer rows, or a band too narrow for the skew, runs row
// after row. Every schedule computes a cell from the same three
// neighbours, so costs are bit-equal to the row-by-row recurrence.
//
// abandon enables early abandoning: when the minimum cumulative cost of
// a completed row already exceeds abandon, the true DTW cost must too
// (costs are non-negative and every warping path crosses every row), so
// the kernel returns that row minimum, a valid lower bound, with
// exact=false. Row minima are tested in row order once their block is
// done, so the first row past abandon is the one reported. An infinite
// abandon never triggers and the result is exact.
func dtwKernel(p, q timeseries.Series, w int, abandon float64, sc *dtwScratch) (v float64, exact bool) {
	n, m := len(p), len(q)
	if n == 0 || m == 0 {
		return math.Inf(1), true
	}
	if d := n - m; w < 0 || w > n+m {
		w = n + m // unconstrained: a band wider than the matrix
	} else if w < d {
		w = d
	} else if w < -d {
		w = -d
	}
	if cap(sc.row) < m+1 {
		sc.row = make([]uint64, m+1)
	}
	row := sc.row[:m+1]
	row[0] = 0
	for j := 1; j <= m; j++ {
		row[j] = infBits
	}
	var s dtwSweep
	var lo, hi [dtwRows]int
	for i := 1; i <= n; i += dtwRows {
		rows := min(dtwRows, n-i+1)
		for r := 0; r < rows; r++ {
			s.x[r] = p[i+r-1]
			lo[r], hi[r] = max(1, i+r-w), min(m, i+r+w)
		}
		// Skewed, row r is at column t-r at step t; for t in [from, to]
		// every row is inside its band.
		from, to := lo[dtwRows-1]+dtwRows-1, hi[0]
		together := rows == dtwRows && from <= to
		for r := 0; r < rows; r++ {
			// Left of the band is +Inf; so is column 0, once the
			// matrix's first row has read the origin's 0 from it.
			s.left[r], s.diag[r], s.min[r] = infBits, row[lo[r]-1], infBits
			row[0] = infBits
			end := hi[r]
			if together {
				end = from - r - 1
			}
			s.run(r, row, q, lo[r], end)
		}
		if together {
			s.skewed(row[from-dtwRows+1:to+1], q[from-dtwRows:to])
			for r := 1; r < rows; r++ {
				s.run(r, row, q, to-r+1, hi[r])
			}
		}
		for r := 0; r < rows; r++ {
			if rowMin := math.Float64frombits(s.min[r]); rowMin > abandon {
				return rowMin, false
			}
		}
	}
	return math.Float64frombits(row[m]), true
}

// envScratch holds the monotonic deques of envelope computations,
// pooled so no envelope call allocates in steady state.
type envScratch struct {
	minq, maxq []int
}

// deques returns empty index deques with capacity for m samples.
func (sc *envScratch) deques(m int) (minq, maxq []int) {
	if cap(sc.minq) < m {
		sc.minq = make([]int, 0, m)
		sc.maxq = make([]int, 0, m)
	}
	return sc.minq[:0], sc.maxq[:0]
}

// envPool recycles envelope deques across calls.
var envPool = sync.Pool{New: func() any { return new(envScratch) }}

// envelope fills lower/upper with the running min/max of q over the
// Sakoe-Chiba band [j-w, j+w] — the LB_Keogh envelope. A negative w
// uses the whole series (the envelope of unconstrained DTW). Both
// output slices must be len(q) long. Monotonic deques keep it O(m),
// and the deques are pooled so steady-state calls allocate nothing.
func envelope(q timeseries.Series, w int, lower, upper []float64) {
	m := len(q)
	if w < 0 || w >= m {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range q {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for j := 0; j < m; j++ {
			lower[j], upper[j] = lo, hi
		}
		return
	}
	sc := envPool.Get().(*envScratch)
	envelopeBand(q, w, lower, upper, sc)
	envPool.Put(sc)
}

// envelopeBand fills the band-w envelope (0 <= w < len(q)) by running
// monotonic deques over q: each sample is pushed and popped at most
// once, so it is O(m) whatever the band.
func envelopeBand(q timeseries.Series, w int, lower, upper []float64, sc *envScratch) {
	m := len(q)
	minq, maxq := sc.deques(m)
	next := 0
	for j := 0; j < m; j++ {
		end := min(j+w, m-1)
		for ; next <= end; next++ {
			for len(minq) > 0 && q[minq[len(minq)-1]] >= q[next] {
				minq = minq[:len(minq)-1]
			}
			minq = append(minq, next)
			for len(maxq) > 0 && q[maxq[len(maxq)-1]] <= q[next] {
				maxq = maxq[:len(maxq)-1]
			}
			maxq = append(maxq, next)
		}
		for minq[0] < j-w {
			minq = minq[1:]
		}
		for maxq[0] < j-w {
			maxq = maxq[1:]
		}
		lower[j] = q[minq[0]]
		upper[j] = q[maxq[0]]
	}
	// sc keeps the base arrays; the local headers (front-popped) are
	// discarded. Appends never outrun the base: each sample is pushed
	// at most once, so write positions stay below m.
}

// lbKeogh returns the LB_Keogh lower bound on the band-w DTW of p and
// q, given q's envelope for half-width w. Both series must be the same
// length. Every warping path matches each p[i] to some q[j] with
// |i-j| <= w, at squared cost at least p[i]'s squared distance to the
// envelope interval [lower[i], upper[i]]; summing over i bounds the
// path cost from below: LB_Keogh(p, q) <= DTW_w(p, q).
func lbKeogh(p timeseries.Series, lower, upper []float64) float64 {
	var sum float64
	for i, v := range p {
		if v > upper[i] {
			d := v - upper[i]
			sum += d * d
		} else if v < lower[i] {
			d := lower[i] - v
			sum += d * d
		}
	}
	return sum
}

// DistMatrix is a symmetric matrix of pairwise dissimilarities with
// zero diagonal.
type DistMatrix struct {
	n    int
	data []float64 // full n×n for simple indexing
}

// NewDistMatrix returns an n×n zero distance matrix.
func NewDistMatrix(n int) *DistMatrix {
	if n < 0 {
		panic(&BoundsError{I: n, J: n, N: n})
	}
	return &DistMatrix{n: n, data: make([]float64, n*n)}
}

// Len returns the number of items.
func (d *DistMatrix) Len() int { return d.n }

// check panics with a typed *BoundsError on an out-of-range index pair,
// mirroring slice indexing: an out-of-range access is a caller bug, and
// the old unchecked arithmetic could silently alias a wrong cell
// (e.g. At(0, n) reading item (1,0)).
func (d *DistMatrix) check(i, j int) {
	if i < 0 || i >= d.n || j < 0 || j >= d.n {
		panic(&BoundsError{I: i, J: j, N: d.n})
	}
}

// At returns the dissimilarity between items i and j.
func (d *DistMatrix) At(i, j int) float64 {
	d.check(i, j)
	return d.data[i*d.n+j]
}

// Set assigns the symmetric dissimilarity between items i and j.
func (d *DistMatrix) Set(i, j int, v float64) {
	d.check(i, j)
	d.data[i*d.n+j] = v
	d.data[j*d.n+i] = v
}

// MatrixOption configures DTWMatrix / DTWMatrixApprox.
type MatrixOption func(*matrixConfig)

type matrixConfig struct {
	workers int
}

// validate checks the input of a pairwise matrix: every series must be
// non-empty, all the same length, and hold only finite samples.
func validate(series []timeseries.Series) error {
	for i, s := range series {
		if len(s) == 0 {
			return fmt.Errorf("series %d: %w", i, timeseries.ErrEmpty)
		}
		if len(s) != len(series[0]) {
			return fmt.Errorf("series %d has %d samples, series 0 has %d: %w",
				i, len(s), len(series[0]), ErrSeriesLength)
		}
		if err := checkFinite(s); err != nil {
			return fmt.Errorf("series %d: %w", i, err)
		}
	}
	return nil
}

// normalized validates and z-normalizes the input series for a pairwise
// matrix.
func normalized(series []timeseries.Series) ([]timeseries.Series, error) {
	if err := validate(series); err != nil {
		return nil, err
	}
	norm := make([]timeseries.Series, len(series))
	for i, s := range series {
		norm[i] = s.Normalize()
	}
	return norm, nil
}

// pairAt decodes the t-th upper-triangle pair (row-major) of an n×n
// matrix without materializing the pair list.
func pairAt(n, t int) (i, j int) {
	// Solve t = i*n - i*(i+1)/2 + (j-i-1) for the largest i whose row
	// starts at or before t, then recover j.
	i = 0
	rowLen := n - 1
	for t >= rowLen {
		t -= rowLen
		i++
		rowLen--
	}
	return i, i + 1 + t
}

// DTWMatrix computes all pairwise DTW dissimilarities between the
// series. Series are z-normalized first so that DTW groups by shape
// rather than by level, which is what makes co-moving usage series
// cluster together. The window parameter is the Sakoe-Chiba band
// half-width (negative: unconstrained).
//
// Upper-triangle cells are computed concurrently on the shared worker
// pool; each worker reuses its own scratch rows, so the inner loop
// allocates nothing per pair. Results are bit-identical to the
// sequential computation regardless of worker count. All series must
// share one length (ErrSeriesLength otherwise) and be finite throughout
// (ErrNonFinite otherwise).
func DTWMatrix(series []timeseries.Series, window int, opts ...MatrixOption) (*DistMatrix, error) {
	var mc matrixConfig
	for _, o := range opts {
		o(&mc)
	}
	n := len(series)
	d := NewDistMatrix(n)
	if n == 0 {
		return d, nil
	}
	norm, err := normalized(series)
	if err != nil {
		return nil, err
	}
	pairs := n * (n - 1) / 2
	scratch := makeScratches(pairs, mc.workers)
	err = parallel.ForEachWorker(pairs, func(wk, t int) error {
		i, j := pairAt(n, t)
		v, _ := dtwKernel(norm[i], norm[j], window, math.Inf(1), scratch[wk])
		d.Set(i, j, v)
		return nil
	}, parallel.WithWorkers(mc.workers))
	if err != nil {
		return nil, err
	}
	dtwPairs.With("exact").Add(float64(pairs))
	return d, nil
}

// DTWMatrixApprox is the pruned variant of DTWMatrix used where exact
// far-pair distances are not needed (clustering only ever compares and
// merges near pairs): pairs whose LB_Keogh lower bound already exceeds
// cutoff store the bound itself instead of running the O(n·m)
// recurrence, and the recurrence early-abandons at cutoff. Stored
// values never exceed the true distance (the bound is admissible), and
// every stored value below or at cutoff is exact. cutoff <= 0
// auto-selects the median lower bound across pairs, pruning roughly
// the farthest half. The fraction of pairs that skipped the full
// recurrence is returned for observability.
func DTWMatrixApprox(series []timeseries.Series, window int, cutoff float64, opts ...MatrixOption) (*DistMatrix, float64, error) {
	var mc matrixConfig
	for _, o := range opts {
		o(&mc)
	}
	n := len(series)
	d := NewDistMatrix(n)
	if n == 0 {
		return d, 0, nil
	}
	if err := validate(series); err != nil {
		return nil, 0, err
	}
	sc := approxPool.Get().(*approxScratch)
	defer approxPool.Put(sc)
	// Per-series LB_Keogh envelopes, computed once: 2·n·m floats buy an
	// O(m) bound per pair instead of the O(n·m) recurrence.
	norm, lower, upper := sc.views(n, len(series[0]))
	for i, s := range series {
		normalizeInto(norm[i], s)
		envelope(norm[i], window, lower[i], upper[i])
	}
	pairs := n * (n - 1) / 2
	lbs := sc.bounds(pairs)
	perr := parallel.ForEach(pairs, func(t int) error {
		i, j := pairAt(n, t)
		// LB_Keogh is asymmetric; the max of both directions is the
		// tighter admissible bound.
		lb := lbKeogh(norm[i], lower[j], upper[j])
		if lb2 := lbKeogh(norm[j], lower[i], upper[i]); lb2 > lb {
			lb = lb2
		}
		lbs[t] = lb
		return nil
	}, parallel.WithWorkers(mc.workers))
	if perr != nil {
		return nil, 0, perr
	}
	if cutoff <= 0 {
		sorted := append(sc.sorted[:0], lbs...)
		sort.Float64s(sorted)
		cutoff = sorted[len(sorted)/2]
		sc.sorted = sorted
	}
	var prunedCount atomic.Int64
	scratch := makeScratches(pairs, mc.workers)
	perr = parallel.ForEachWorker(pairs, func(wk, t int) error {
		i, j := pairAt(n, t)
		if lbs[t] > cutoff {
			d.Set(i, j, lbs[t])
			prunedCount.Add(1)
			return nil
		}
		v, exact := dtwKernel(norm[i], norm[j], window, cutoff, scratch[wk])
		if !exact {
			// The kernel abandoned past cutoff: keep the strongest
			// lower bound we hold for the pair.
			if lbs[t] > v {
				v = lbs[t]
			}
			prunedCount.Add(1)
		}
		d.Set(i, j, v)
		return nil
	}, parallel.WithWorkers(mc.workers))
	if perr != nil {
		return nil, 0, perr
	}
	pruned := prunedCount.Load()
	dtwPairs.With("pruned").Add(float64(pruned))
	dtwPairs.With("exact").Add(float64(pairs) - float64(pruned))
	return d, float64(pruned) / float64(pairs), nil
}

// makeScratches builds one DTW scratch per pool worker for n items.
func makeScratches(n, workers int) []*dtwScratch {
	w := parallel.ResolveWorkers(n, workers)
	out := make([]*dtwScratch, w)
	for i := range out {
		out[i] = new(dtwScratch)
	}
	return out
}
