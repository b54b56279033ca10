package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSeriesBasics(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if got := s.Sum(); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := s.Var(); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Var = %v, want 1.25", got)
	}
	if got := s.Std(); !almostEqual(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("Std = %v, want sqrt(1.25)", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if got := s.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	if got := s.Var(); got != 0 {
		t.Errorf("empty Var = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Min on empty series did not panic")
		}
	}()
	s.Min()
}

func TestSeriesClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares backing array with source")
	}
}

func TestSeriesClamp(t *testing.T) {
	s := Series{-5, 0, 50, 150}
	c := s.Clamp(0, 100)
	want := Series{0, 0, 50, 100}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("Clamp[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestSeriesNormalize(t *testing.T) {
	s := Series{2, 4, 6, 8}
	n := s.Normalize()
	if !almostEqual(n.Mean(), 0, 1e-12) {
		t.Errorf("normalized mean = %v, want 0", n.Mean())
	}
	if !almostEqual(n.Std(), 1, 1e-12) {
		t.Errorf("normalized std = %v, want 1", n.Std())
	}
	// Constant series: only mean subtraction.
	c := Series{7, 7, 7}.Normalize()
	for i, v := range c {
		if v != 0 {
			t.Errorf("constant normalized [%d] = %v, want 0", i, v)
		}
	}
}

func TestSeriesCountAbove(t *testing.T) {
	s := Series{10, 60, 60.1, 90}
	if got := s.CountAbove(60); got != 2 {
		t.Errorf("CountAbove(60) = %d, want 2 (strictly greater)", got)
	}
}

func TestPearsonKnown(t *testing.T) {
	a := Series{1, 2, 3, 4, 5}
	tests := []struct {
		name string
		b    Series
		want float64
	}{
		{"perfect positive", Series{2, 4, 6, 8, 10}, 1},
		{"perfect negative", Series{10, 8, 6, 4, 2}, -1},
		{"shifted copy", Series{11, 12, 13, 14, 15}, 1},
		{"constant", Series{5, 5, 5, 5, 5}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Pearson(a, tt.b)
			if err != nil {
				t.Fatalf("Pearson: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Pearson = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson(Series{1, 2}, Series{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := Pearson(Series{}, Series{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// Property: Pearson is symmetric, bounded in [-1,1], and invariant under
// positive affine transforms.
func TestPearsonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(64)
		a := make(Series, n)
		b := make(Series, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		ab, err1 := Pearson(a, b)
		ba, err2 := Pearson(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if !almostEqual(ab, ba, 1e-12) {
			return false
		}
		if ab < -1 || ab > 1 {
			return false
		}
		// Affine invariance: corr(2a+3, b) == corr(a, b).
		a2 := a.Scale(2)
		for i := range a2 {
			a2[i] += 3
		}
		ab2, err := Pearson(a2, b)
		if err != nil {
			return false
		}
		return almostEqual(ab, ab2, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMAPE(t *testing.T) {
	actual := Series{100, 200, 0, 50}
	fitted := Series{110, 180, 5, 50}
	got, err := MAPE(actual, fitted)
	if err != nil {
		t.Fatalf("MAPE: %v", err)
	}
	// zero actual skipped: (0.1 + 0.1 + 0) / 3
	want := (0.1 + 0.1 + 0) / 3
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("MAPE = %v, want %v", got, want)
	}
	if _, err := MAPE(Series{1}, Series{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	// All-zero actual: defined as 0.
	z, err := MAPE(Series{0, 0}, Series{1, 2})
	if err != nil || z != 0 {
		t.Errorf("all-zero MAPE = %v, %v; want 0, nil", z, err)
	}
}

func TestPeakMAPE(t *testing.T) {
	actual := Series{10, 70, 90}
	fitted := Series{99, 77, 81}
	got, err := PeakMAPE(actual, fitted, 60)
	if err != nil {
		t.Fatalf("PeakMAPE: %v", err)
	}
	want := (0.1 + 0.1) / 2 // only 70 and 90 exceed the peak threshold
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("PeakMAPE = %v, want %v", got, want)
	}
	// No sample above threshold: 0.
	z, err := PeakMAPE(Series{10, 20}, Series{0, 0}, 60)
	if err != nil || z != 0 {
		t.Errorf("no-peak PeakMAPE = %v, %v; want 0, nil", z, err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		if got := Quantile(vals, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Quantile interp = %v, want 5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

// TestQuantileIntoMatchesSort: the selection-based quantile returns,
// bit for bit, what interpolating over a fully sorted copy does — over
// random lengths, heavy ties, NaNs and every position of q — through one
// scratch buffer reused (and left dirty) across calls.
func TestQuantileIntoMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []float64
	for trial := 0; trial < 4000; trial++ {
		vals := make([]float64, 1+rng.Intn(200))
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = math.NaN()
			case 1, 2, 3:
				vals[i] = float64(rng.Intn(4)) // ties
			default:
				vals[i] = rng.NormFloat64() * 50
			}
		}
		q := []float64{0, 1, 0.5, 0.95, -0.1, 1.1, rng.Float64()}[trial%7]
		orig := append([]float64(nil), vals...)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := quantileSorted(sorted, q)
		var got float64
		got, scratch = QuantileInto(scratch, vals, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: QuantileInto(%d values, %v) = %v, sorted copy gives %v", trial, len(vals), q, got, want)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: input reordered", trial)
			}
		}
	}
}

func TestQuantileUnsortedInputUnmodified(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Quantile sorted its input in place")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(mean, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", mean)
	}
	if !almostEqual(std, 2, 1e-12) {
		t.Errorf("std = %v, want 2", std)
	}
	m0, s0 := MeanStd(nil)
	if m0 != 0 || s0 != 0 {
		t.Errorf("empty MeanStd = %v, %v; want 0, 0", m0, s0)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	for _, tt := range []struct{ q, want float64 }{{0, 1}, {0.5, 2}, {1, 3}} {
		if got := c.Quantile(tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := c.Mean(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points returned %d/%d values", len(xs), len(ps))
	}
	if ps[0] != 0 || ps[4] != 1 {
		t.Errorf("Points probability range = [%v, %v], want [0, 1]", ps[0], ps[4])
	}
}

// Property: the plotted CDF curve is monotone non-decreasing in both
// coordinates and spans the sample from its minimum to its maximum.
func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		xs, ps := NewCDF(vals).Points(1 + r.Intn(20) + 1)
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
				return false
			}
		}
		return xs[0] == slices.Min(vals) && xs[len(xs)-1] == slices.Max(vals) && ps[len(ps)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
