// Package timeseries provides the fundamental time-series types and
// statistics used throughout ATM: fixed-interval usage/demand series,
// Pearson correlation, error metrics, quantiles and empirical CDFs.
//
// Every series in ATM is a sequence of samples taken at a fixed interval
// (the paper's traces are sampled every 15 minutes). A Series carries no
// timestamps; position i is implicitly t0 + i*interval, and the interval
// itself is tracked by the owning trace.
package timeseries

import (
	"errors"
	"math"
)

// Series is a fixed-interval time series of float64 samples.
//
// The zero value is an empty series ready to append to.
type Series []float64

// Errors returned by series operations.
var (
	// ErrLengthMismatch indicates two series of different lengths were
	// combined in an operation that requires equal lengths.
	ErrLengthMismatch = errors.New("timeseries: length mismatch")
	// ErrEmpty indicates an operation that requires at least one sample
	// was applied to an empty series.
	ErrEmpty = errors.New("timeseries: empty series")
)

// Clone returns an independent copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Slice returns the sub-series s[from:to] as a view (no copy).
func (s Series) Slice(from, to int) Series { return s[from:to] }

// Sum returns the sum of all samples.
func (s Series) Sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Var returns the population variance, or 0 for series shorter than 2.
func (s Series) Var() float64 {
	if len(s) < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(s))
}

// Std returns the population standard deviation.
func (s Series) Std() float64 { return math.Sqrt(s.Var()) }

// Max returns the largest sample. It panics on an empty series.
func (s Series) Max() float64 {
	if len(s) == 0 {
		panic(ErrEmpty)
	}
	max := s[0]
	for _, v := range s[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Scale returns a new series with every sample multiplied by f.
func (s Series) Scale(f float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

// Clamp returns a new series with every sample clamped into [lo, hi].
func (s Series) Clamp(lo, hi float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		switch {
		case v < lo:
			out[i] = lo
		case v > hi:
			out[i] = hi
		default:
			out[i] = v
		}
	}
	return out
}

// Normalize returns (s - mean) / std. If the series is constant the
// zero-mean series is returned unscaled (std would be zero).
func (s Series) Normalize() Series {
	m, sd := s.Mean(), s.Std()
	out := make(Series, len(s))
	for i, v := range s {
		if sd > 0 {
			out[i] = (v - m) / sd
		} else {
			out[i] = v - m
		}
	}
	return out
}

// CountAbove returns the number of samples strictly greater than x.
func (s Series) CountAbove(x float64) int {
	n := 0
	for _, v := range s {
		if v > x {
			n++
		}
	}
	return n
}
