// Package stats provides the statistical hypothesis test a trace study
// leans on: the two-sample Kolmogorov-Smirnov test, comparing empirical
// distributions (e.g. a synthetic trace's correlation CDF against a
// reference).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFewSamples indicates a test was invoked with insufficient data.
var ErrTooFewSamples = errors.New("stats: too few samples")

// KSResult is the outcome of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// Statistic is the maximum distance between the two empirical
	// CDFs.
	Statistic float64
	// PValue is the asymptotic two-sided p-value (Kolmogorov
	// distribution approximation).
	PValue float64
}

// KolmogorovSmirnov compares two samples. Small p-values reject the
// hypothesis that both came from the same distribution.
func KolmogorovSmirnov(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrTooFewSamples
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	var d float64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		// Advance past every sample equal to the smaller head value on
		// BOTH sides before comparing the CDFs, so ties do not inflate
		// the statistic.
		v := math.Min(as[i], bs[j])
		for i < len(as) && as[i] == v {
			i++
		}
		for j < len(bs) && bs[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}

	ne := float64(len(as)) * float64(len(bs)) / float64(len(as)+len(bs))
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{Statistic: d, PValue: ksPValue(lambda)}, nil
}

// ksPValue evaluates the Kolmogorov distribution tail
// Q(λ) = 2 Σ (-1)^{k-1} exp(-2 k² λ²).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
