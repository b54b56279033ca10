package cluster

import (
	"fmt"
	"sync"

	"atm/internal/obs"
	"atm/internal/timeseries"
)

// envelopeWindows counts EnvelopeBank updates by outcome: "rolled"
// windows reused the previous envelopes incrementally, "full" windows
// recomputed from scratch (first window, geometry change, or a
// non-roll window).
var envelopeWindows = obs.Default().CounterVec("atm_envelope_windows_total",
	"EnvelopeBank series-window updates by outcome: incremental roll vs full recompute.", "outcome")

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

// envSeriesState is one series' incremental envelope state.
type envSeriesState struct {
	raw      []float64 // private copy of the current raw window
	lowerRaw []float64 // envelope of the raw window
	upperRaw []float64

	// Stream-position monotonic deques for the unconstrained (global
	// min/max) envelope: positions of candidate extrema within the
	// last m stream samples.
	minDq, maxDq []int
}

// EnvelopeBank maintains LB_Keogh envelopes incrementally across
// windows that roll forward by a fixed shift — the rolling pipeline's
// research cadence. A banded envelope position whose samples lie
// entirely in the overlap keeps its previous value (one copy); only
// the head positions (their band lost departed samples) and tail
// positions (their band gained arrived samples) are recomputed, via
// monotonic deques — O(shift + band) per series instead of O(m). The
// unconstrained envelope (the spatial default) keeps per-series
// stream deques, O(1) amortized per arrived sample.
//
// Normalization is where incrementality survives z-scoring: the
// envelope is computed on the raw window and mapped through
// v -> (v-mean)/std afterwards. The map is strictly monotone, so the
// mapped raw extremum IS the extremum of the mapped series, bit for
// bit — bank output is identical to envelope(series.Normalize(), ...).
//
// A window that is not a roll of the previous one (first window,
// re-search after drift, geometry change) recomputes from scratch.
// The bank is stateful and not safe for concurrent use.
type EnvelopeBank struct {
	shift  int
	m, n   int
	window int // effective half-width of the last update, -1 = global
	ready  bool
	states []*envSeriesState

	rolled, full int
}

// NewEnvelopeBank returns a bank expecting consecutive windows to be
// shifted forward by shift samples. shift must be positive.
func NewEnvelopeBank(shift int) *EnvelopeBank {
	if shift <= 0 {
		panic(fmt.Sprintf("cluster: envelope bank shift %d: must be positive", shift))
	}
	return &EnvelopeBank{shift: shift}
}

// update writes each series' normalization and normalized envelope
// into norm, lower and upper, rolling the raw envelopes it retains
// forward when the windows moved by the configured shift. The series
// must have passed validate.
func (b *EnvelopeBank) update(series []timeseries.Series, window int, norm []timeseries.Series, lower, upper [][]float64) {
	n := len(series)
	m := len(series[0])
	w := window
	if w < 0 || w >= m {
		w = -1 // global min/max envelope
	}
	// Geometry change invalidates everything.
	if b.n != n || b.m != m || b.window != w {
		b.ready = false
		b.n, b.m, b.window = n, m, w
	}
	for len(b.states) < n {
		b.states = append(b.states, &envSeriesState{})
	}

	var rolledCount, fullCount int
	for i, s := range series {
		st := b.states[i]
		st.grow(m)
		if b.ready && b.shift < m && overlapEq(st.raw, s, b.shift) {
			b.rollSeries(st, s)
			rolledCount++
		} else {
			b.fullSeries(st, s)
			fullCount++
		}
		copy(st.raw, s)
		// Normalize the raw window and map the raw envelope through
		// the same (strictly monotone) transform.
		mean, sd := s.Mean(), s.Std()
		for j, v := range s {
			norm[i][j] = zscore(v, mean, sd)
			lower[i][j] = zscore(st.lowerRaw[j], mean, sd)
			upper[i][j] = zscore(st.upperRaw[j], mean, sd)
		}
	}
	b.rolled += rolledCount
	b.full += fullCount
	envelopeWindows.With("rolled").Add(float64(rolledCount))
	envelopeWindows.With("full").Add(float64(fullCount))
	b.ready = true
}

// zscore applies the Normalize transform for precomputed moments.
func zscore(v, mean, sd float64) float64 {
	if sd > 0 {
		return (v - mean) / sd
	}
	return v - mean
}

// grow sizes the state's buffers for window length m.
func (st *envSeriesState) grow(m int) {
	if cap(st.raw) < m {
		st.raw = make([]float64, m)
		st.lowerRaw = make([]float64, m)
		st.upperRaw = make([]float64, m)
	}
	st.raw = st.raw[:m]
	st.lowerRaw = st.lowerRaw[:m]
	st.upperRaw = st.upperRaw[:m]
}

// overlapEq reports whether cur is prev rolled forward by shift.
func overlapEq(prev []float64, cur timeseries.Series, shift int) bool {
	n := len(prev)
	for i := shift; i < n; i++ {
		if prev[i] != cur[i-shift] {
			return false
		}
	}
	return true
}

// fullSeries recomputes the raw envelope (and, for the global case,
// rebuilds the stream deques) from scratch.
func (b *EnvelopeBank) fullSeries(st *envSeriesState, s timeseries.Series) {
	m := b.m
	if b.window < 0 {
		// Rebuild the stream deques over the whole window; positions
		// are window indices (rebased on every full recompute).
		st.minDq = st.minDq[:0]
		st.maxDq = st.maxDq[:0]
		if cap(st.minDq) < m {
			st.minDq = make([]int, 0, 2*m)
			st.maxDq = make([]int, 0, 2*m)
		}
		for j := 0; j < m; j++ {
			st.pushGlobal(s, j)
		}
		lo, hi := s[st.minDq[0]], s[st.maxDq[0]]
		for j := 0; j < m; j++ {
			st.lowerRaw[j], st.upperRaw[j] = lo, hi
		}
		return
	}
	envelope(s, b.window, st.lowerRaw, st.upperRaw)
}

// pushGlobal appends window position j to the stream deques.
func (st *envSeriesState) pushGlobal(s timeseries.Series, j int) {
	for len(st.minDq) > 0 && s[st.minDq[len(st.minDq)-1]] >= s[j] {
		st.minDq = st.minDq[:len(st.minDq)-1]
	}
	st.minDq = append(st.minDq, j)
	for len(st.maxDq) > 0 && s[st.maxDq[len(st.maxDq)-1]] <= s[j] {
		st.maxDq = st.maxDq[:len(st.maxDq)-1]
	}
	st.maxDq = append(st.maxDq, j)
}

// rollSeries updates the raw envelope for a window that rolled
// forward by b.shift samples.
func (b *EnvelopeBank) rollSeries(st *envSeriesState, s timeseries.Series) {
	m, shift, w := b.m, b.shift, b.window
	if w < 0 {
		// Global case: rebase deque positions by -shift, drop expired
		// fronts, push arrived samples. Deque values are read from the
		// new window (overlap values are identical by the roll check).
		st.minDq = rebase(st.minDq, shift)
		st.maxDq = rebase(st.maxDq, shift)
		for j := m - shift; j < m; j++ {
			st.pushGlobal(s, j)
		}
		lo, hi := s[st.minDq[0]], s[st.maxDq[0]]
		for j := 0; j < m; j++ {
			st.lowerRaw[j], st.upperRaw[j] = lo, hi
		}
		return
	}
	if 2*w+shift >= m {
		// No band position survives the roll untouched.
		envelope(s, w, st.lowerRaw, st.upperRaw)
		return
	}
	// Middle positions [w, m-1-w-shift] kept their full band inside
	// the overlap: their extrema are the previous window's values,
	// shifted left.
	copy(st.lowerRaw[w:m-w-shift], st.lowerRaw[w+shift:m-w])
	copy(st.upperRaw[w:m-w-shift], st.upperRaw[w+shift:m-w])
	sc := envPool.Get().(*envScratch)
	// Head positions lost departed samples from their band…
	envelopeRange(s, w, 0, w-1, st.lowerRaw, st.upperRaw, sc)
	// …tail positions gained arrived samples.
	envelopeRange(s, w, m-w-shift, m-1, st.lowerRaw, st.upperRaw, sc)
	envPool.Put(sc)
}

// rebase shifts deque positions left by shift and drops the expired
// front entries, keeping the backing array.
func rebase(dq []int, shift int) []int {
	keep := 0
	for _, p := range dq {
		if p >= shift {
			dq[keep] = p - shift
			keep++
		}
	}
	return dq[:keep]
}
