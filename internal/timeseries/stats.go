package timeseries

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson product-moment correlation coefficient of
// the two equal-length series. If either series is constant the
// correlation is undefined and 0 is returned (the conventional choice
// for usage traces: a flat series carries no co-movement information).
func Pearson(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("pearson %d vs %d samples: %w", len(a), len(b), ErrLengthMismatch)
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	ma, mb := a.Mean(), b.Mean()
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	r := sab / math.Sqrt(saa*sbb)
	// Guard against floating-point drift outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// APE returns the absolute percentage error |actual-fitted|/actual of a
// single sample, following the paper's definition (Section III). Samples
// with actual == 0 are undefined; callers should skip them (see MAPE).
func APE(actual, fitted float64) float64 {
	return math.Abs(actual-fitted) / math.Abs(actual)
}

// MAPE returns the mean absolute percentage error between the actual and
// fitted series, skipping samples where actual is (near) zero, which
// would make the ratio undefined. If every sample is skipped it returns
// 0.
func MAPE(actual, fitted Series) (float64, error) {
	if len(actual) != len(fitted) {
		return 0, fmt.Errorf("mape %d vs %d samples: %w", len(actual), len(fitted), ErrLengthMismatch)
	}
	var sum float64
	n := 0
	for i := range actual {
		if math.Abs(actual[i]) < 1e-9 {
			continue
		}
		sum += APE(actual[i], fitted[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// PeakMAPE returns the MAPE restricted to samples where the actual
// value exceeds the given peak threshold. The paper reports "peak"
// errors for usage above the ticket threshold (60% of capacity), which
// is what matters for ticket prediction.
func PeakMAPE(actual, fitted Series, peak float64) (float64, error) {
	if len(actual) != len(fitted) {
		return 0, fmt.Errorf("peak mape %d vs %d samples: %w", len(actual), len(fitted), ErrLengthMismatch)
	}
	var sum float64
	n := 0
	for i := range actual {
		if actual[i] <= peak || math.Abs(actual[i]) < 1e-9 {
			continue
		}
		sum += APE(actual[i], fitted[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the values using
// linear interpolation between order statistics (type-7 estimator, the
// same default as R and NumPy). It panics if values is empty.
func Quantile(values []float64, q float64) float64 {
	v, _ := QuantileInto(nil, values, q)
	return v
}

// QuantileInto is Quantile on a caller-owned scratch buffer, which it
// grows as needed and returns for the next call; values is left alone.
// The estimate reads two order statistics only, so the copy is not
// sorted: the lower one is put in place by selection and the upper one
// is the smallest value after it. NaNs order before every number, as
// sort.Float64s has them.
func QuantileInto(scratch, values []float64, q float64) (float64, []float64) {
	if len(values) == 0 {
		panic(ErrEmpty)
	}
	scratch = append(scratch[:0], values...)
	pos := min(max(q, 0), 1) * float64(len(scratch)-1)
	lo := int(math.Floor(pos))
	selectNth(scratch, lo)
	if hi := int(math.Ceil(pos)); hi != lo {
		// Everything after lo is no smaller: the next order statistic
		// is the least of it.
		m := hi
		for i := hi + 1; i < len(scratch); i++ {
			if before(scratch[i], scratch[m]) {
				m = i
			}
		}
		scratch[hi], scratch[m] = scratch[m], scratch[hi]
	}
	return quantileSorted(scratch, q), scratch
}

// before is the order of sort.Float64s: ascending, NaNs first.
func before(a, b float64) bool { return a < b || (a != a && b == b) }

// selectNth partially orders a so that a[n] holds the value a full sort
// would put there, with nothing larger before it and nothing smaller
// after it (quickselect, median-of-three pivots).
func selectNth(a []float64, n int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		if before(a[hi], a[lo]) {
			a[lo], a[hi] = a[hi], a[lo]
		}
		switch {
		case before(p, a[lo]):
			p = a[lo]
		case before(a[hi], p):
			p = a[hi]
		}
		i, j := lo, hi
		for i <= j {
			for before(a[i], p) {
				i++
			}
			for before(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of values.
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// MeanStd returns the mean and population standard deviation of values.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(values)))
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input slice is
// copied.
func NewCDF(values []float64) *CDF {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		panic(ErrEmpty)
	}
	return quantileSorted(c.sorted, q)
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Series(c.sorted).Mean() }

// Points returns (x, P(X<=x)) pairs at n evenly spaced probability
// levels, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if n < 2 || len(c.sorted) == 0 {
		return nil, nil
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		ps[i] = p
		xs[i] = c.Quantile(p)
	}
	return xs, ps
}
