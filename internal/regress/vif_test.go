package regress

import (
	"math"
	"math/rand"
	"testing"

	"atm/internal/timeseries"
)

// collinearSet builds p series of length t where later series are
// noisy linear mixtures of earlier ones — realistic multicollinearity
// with finite VIFs.
func collinearSet(r *rand.Rand, p, t int, noise float64) []timeseries.Series {
	series := make([]timeseries.Series, p)
	base := p / 3
	if base < 2 {
		base = 2
	}
	for i := 0; i < p; i++ {
		s := make(timeseries.Series, t)
		if i < base {
			for k := range s {
				s[k] = r.NormFloat64()
			}
		} else {
			w := make([]float64, base)
			for j := range w {
				w[j] = r.NormFloat64()
			}
			for k := range s {
				v := noise * r.NormFloat64()
				for j := 0; j < base; j++ {
					v += w[j] * series[j][k]
				}
				s[k] = v
			}
		}
		series[i] = s
	}
	return series
}

// The factored VIF must agree with the p-fit reference to high
// relative precision on non-degenerate inputs.
func TestVIFMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := 3 + r.Intn(10)
		n := p + 5 + r.Intn(60)
		series := collinearSet(r, p, n, 0.3+r.Float64())
		fast, err := VIF(series)
		if err != nil {
			t.Fatalf("seed %d: VIF: %v", seed, err)
		}
		naive, err := vifNaive(series)
		if err != nil {
			t.Fatalf("seed %d: vifNaive: %v", seed, err)
		}
		for i := range fast {
			diff := math.Abs(fast[i] - naive[i])
			tol := 1e-9 * math.Max(1, math.Abs(naive[i]))
			if diff > tol {
				t.Errorf("seed %d: VIF[%d] = %v, naive %v (diff %v)", seed, i, fast[i], naive[i], diff)
			}
			if fast[i] < 1 {
				t.Errorf("seed %d: VIF[%d] = %v < 1", seed, i, fast[i])
			}
		}
	}
}

// The downdating stepwise elimination must make the exact same
// keep/remove decisions as the recompute-from-scratch reference.
func TestStepwiseVIFMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		p := 4 + r.Intn(12)
		n := p + 8 + r.Intn(80)
		series := collinearSet(r, p, n, 0.2+r.Float64()/2)
		keepF, removedF, err := StepwiseVIF(series, DefaultVIFCutoff)
		if err != nil {
			t.Fatalf("seed %d: StepwiseVIF: %v", seed, err)
		}
		keepN, removedN, err := stepwiseVIFNaive(series, DefaultVIFCutoff)
		if err != nil {
			t.Fatalf("seed %d: stepwiseVIFNaive: %v", seed, err)
		}
		if !equalInts(keepF, keepN) || !equalInts(removedF, removedN) {
			t.Errorf("seed %d: keep %v removed %v, naive keep %v removed %v",
				seed, keepF, removedF, keepN, removedN)
		}
		if len(keepF) < 1 {
			t.Errorf("seed %d: no survivors", seed)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Degenerate inputs must take the naive fallback and reproduce its
// semantics exactly.
func TestVIFDegenerateFallback(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	x := make(timeseries.Series, 30)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	double := make(timeseries.Series, 30)
	for i := range double {
		double[i] = 2 * x[i]
	}
	y := make(timeseries.Series, 30)
	for i := range y {
		y[i] = r.NormFloat64()
	}

	// Exact collinearity: both VIFs +Inf, matching the naive output.
	vifs, err := VIF([]timeseries.Series{x, double, y})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(vifs[0], 1) || !math.IsInf(vifs[1], 1) {
		t.Errorf("collinear VIFs = %v, want +Inf for series 0 and 1", vifs)
	}

	// Constant series: intercept-collinear, handled by the naive
	// fallback — whatever it returns is the defined behavior.
	c := make(timeseries.Series, 30)
	for i := range c {
		c[i] = 5
	}
	vifs, err = VIF([]timeseries.Series{x, c})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := vifNaive([]timeseries.Series{x, c})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vifs {
		if vifs[i] != naive[i] {
			t.Errorf("constant-series VIF[%d] = %v, naive %v", i, vifs[i], naive[i])
		}
	}

	// Single series: trivially 1, no fit possible.
	vifs, err = VIF([]timeseries.Series{x})
	if err != nil || len(vifs) != 1 || vifs[0] != 1 {
		t.Errorf("single-series VIF = %v, %v; want [1], nil", vifs, err)
	}

	// Stepwise on exactly collinear input agrees with the naive
	// reference (both route through vifNaive's Inf handling).
	keepF, removedF, err := StepwiseVIF([]timeseries.Series{x, double, y}, DefaultVIFCutoff)
	if err != nil {
		t.Fatal(err)
	}
	keepN, removedN, err := stepwiseVIFNaive([]timeseries.Series{x, double, y}, DefaultVIFCutoff)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(keepF, keepN) || !equalInts(removedF, removedN) {
		t.Errorf("collinear stepwise: keep %v removed %v, naive keep %v removed %v",
			keepF, removedF, keepN, removedN)
	}
}

// Designer fits must be bit-identical to the standalone entry points:
// same reflector sequence for OLS, same Gram summation for the ridge
// fallback.
func TestDesignerMatchesOLS(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		p := 1 + r.Intn(6)
		n := p + 2 + r.Intn(50)
		preds := make([]timeseries.Series, p)
		for j := range preds {
			s := make(timeseries.Series, n)
			for i := range s {
				s[i] = r.NormFloat64()
			}
			preds[j] = s
		}
		d, err := NewDesigner(preds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for trial := 0; trial < 3; trial++ {
			y := make(timeseries.Series, n)
			for i := range y {
				y[i] = r.NormFloat64()
			}
			want, errW := OLS(y, preds)
			got, errG := d.Fit(y)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("seed %d: err mismatch %v vs %v", seed, errW, errG)
			}
			if errW != nil {
				continue
			}
			if want.Intercept != got.Intercept || want.R2 != got.R2 {
				t.Fatalf("seed %d: fit mismatch %+v vs %+v", seed, want, got)
			}
			for j := range want.Coef {
				if want.Coef[j] != got.Coef[j] {
					t.Fatalf("seed %d: coef %d mismatch %v vs %v", seed, j, want.Coef[j], got.Coef[j])
				}
			}
		}
	}
}

func TestDesignerRidgeMatchesOLSRidge(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 40
	x := make(timeseries.Series, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	double := make(timeseries.Series, n)
	for i := range double {
		double[i] = 2 * x[i]
	}
	preds := []timeseries.Series{x, double} // singular: forces the ridge path
	y := make(timeseries.Series, n)
	for i := range y {
		y[i] = x[i] + 0.1*r.NormFloat64()
	}
	want, err := OLSRidge(y, preds, DefaultRidgeLambda)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesigner(preds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.FitRidge(y, DefaultRidgeLambda)
	if err != nil {
		t.Fatal(err)
	}
	if want.Intercept != got.Intercept || want.R2 != got.R2 {
		t.Fatalf("ridge fit mismatch %+v vs %+v", want, got)
	}
	for j := range want.Coef {
		if want.Coef[j] != got.Coef[j] {
			t.Fatalf("ridge coef %d mismatch %v vs %v", j, want.Coef[j], got.Coef[j])
		}
	}
	// Repeated fits through one Designer stay identical (cached QR and
	// Gram are not mutated by the ridge path).
	again, err := d.FitRidge(y, DefaultRidgeLambda)
	if err != nil {
		t.Fatal(err)
	}
	if again.Intercept != got.Intercept {
		t.Fatalf("second FitRidge diverged: %v vs %v", again.Intercept, got.Intercept)
	}
}
