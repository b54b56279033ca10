package spatial

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atm/internal/timeseries"
)

// boxSeries generates M*2 series for a synthetic box: groups of series
// driven by shared latent factors plus noise, mimicking co-located VM
// usage.
func boxSeries(seed int64, groups, perGroup, n int, noise float64) []timeseries.Series {
	r := rand.New(rand.NewSource(seed))
	factors := make([]timeseries.Series, groups)
	for g := range factors {
		f := make(timeseries.Series, n)
		phase := r.Float64() * 2 * math.Pi
		for i := range f {
			f[i] = 50 + 25*math.Sin(2*math.Pi*float64(i)/48+phase) + 3*r.NormFloat64()
		}
		factors[g] = f
	}
	var out []timeseries.Series
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			s := make(timeseries.Series, n)
			a := 0.5 + r.Float64()
			b := r.Float64() * 10
			for i := range s {
				s[i] = b + a*factors[g][i] + noise*r.NormFloat64()
			}
			out = append(out, s)
		}
	}
	return out
}

func TestSearchCBCFindsGroups(t *testing.T) {
	series := boxSeries(1, 3, 4, 192, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if m.N != 12 {
		t.Errorf("N = %d, want 12", m.N)
	}
	if m.ClusterK < 2 || m.ClusterK > 6 {
		t.Errorf("ClusterK = %d, want near 3", m.ClusterK)
	}
	if len(m.Signatures) >= m.N {
		t.Errorf("no reduction: %d signatures of %d series", len(m.Signatures), m.N)
	}
	if len(m.Signatures)+len(m.Dependents) != m.N {
		t.Errorf("signatures %d + dependents %d != %d", len(m.Signatures), len(m.Dependents), m.N)
	}
	// Spatial fit must be accurate for factor-driven series.
	fitErr, err := m.FitError(series)
	if err != nil {
		t.Fatalf("FitError: %v", err)
	}
	if fitErr > 0.10 {
		t.Errorf("FitError = %v, want < 10%%", fitErr)
	}
}

func TestSearchDTWFindsGroups(t *testing.T) {
	series := boxSeries(2, 2, 4, 96, 0.5)
	m, err := Search(series, Config{Method: MethodDTW})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(m.Signatures) >= m.N {
		t.Errorf("no reduction: %d of %d", len(m.Signatures), m.N)
	}
	fitErr, err := m.FitError(series)
	if err != nil {
		t.Fatalf("FitError: %v", err)
	}
	if fitErr > 0.25 {
		t.Errorf("FitError = %v, want < 25%%", fitErr)
	}
}

func TestSearchStepwiseShrinksOrKeeps(t *testing.T) {
	series := boxSeries(3, 3, 3, 144, 2)
	with, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(series, Config{Method: MethodCBC, SkipStepwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Signatures) > len(without.Signatures) {
		t.Errorf("stepwise grew the signature set: %d > %d",
			len(with.Signatures), len(without.Signatures))
	}
	// Without stepwise the signatures equal the initial set.
	if len(without.Signatures) != len(without.InitialSignatures) {
		t.Errorf("SkipStepwise changed the set: %v vs %v",
			without.Signatures, without.InitialSignatures)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(nil, Config{}); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
	if _, err := Search(boxSeries(4, 1, 2, 32, 1), Config{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestSearchSingleSeries(t *testing.T) {
	series := boxSeries(5, 1, 1, 64, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(m.Signatures) != 1 || m.Signatures[0] != 0 {
		t.Errorf("Signatures = %v, want [0]", m.Signatures)
	}
	if len(m.Dependents) != 0 {
		t.Errorf("Dependents = %v, want none", m.Dependents)
	}
	if got := m.Ratio(); got != 1 {
		t.Errorf("Ratio = %v, want 1", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodDTW.String() != "dtw" || MethodCBC.String() != "cbc" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method has empty name")
	}
}

func TestReconstruct(t *testing.T) {
	series := boxSeries(7, 2, 3, 96, 0.5)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatal(err)
	}
	sigValues := make([]timeseries.Series, len(m.Signatures))
	for i, idx := range m.Signatures {
		sigValues[i] = series[idx]
	}
	out, err := m.Reconstruct(sigValues)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if len(out) != m.N {
		t.Fatalf("len(out) = %d, want %d", len(out), m.N)
	}
	// Signatures pass through verbatim.
	for i, idx := range m.Signatures {
		for j := range out[idx] {
			if out[idx][j] != sigValues[i][j] {
				t.Fatalf("signature %d modified", idx)
			}
		}
	}
	// Dependents approximate their originals.
	for idx := range m.Dependents {
		mape, err := timeseries.MAPE(series[idx], out[idx])
		if err != nil {
			t.Fatal(err)
		}
		if mape > 0.15 {
			t.Errorf("dependent %d reconstruction MAPE = %v", idx, mape)
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	series := boxSeries(8, 2, 2, 64, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reconstruct(nil); err == nil && len(m.Signatures) > 0 {
		t.Error("wrong signature count accepted")
	}
	if len(m.Signatures) >= 2 {
		vals := make([]timeseries.Series, len(m.Signatures))
		for i := range vals {
			vals[i] = make(timeseries.Series, 10)
		}
		vals[1] = make(timeseries.Series, 5)
		if _, err := m.Reconstruct(vals); !errors.Is(err, timeseries.ErrLengthMismatch) {
			t.Errorf("err = %v, want ErrLengthMismatch", err)
		}
	}
}

func TestFittedLengthCheck(t *testing.T) {
	series := boxSeries(9, 1, 3, 64, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fitted(series[:1]); err == nil {
		t.Error("wrong series count accepted")
	}
}

func TestRatioMatchesCounts(t *testing.T) {
	series := boxSeries(10, 3, 4, 96, 1)
	for _, method := range []Method{MethodDTW, MethodCBC} {
		m, err := Search(series, Config{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		want := float64(len(m.Signatures)) / float64(m.N)
		if got := m.Ratio(); got != want {
			t.Errorf("%v Ratio = %v, want %v", method, got, want)
		}
	}
}

func TestSearchFeaturesMethod(t *testing.T) {
	series := boxSeries(12, 3, 4, 96, 1)
	m, err := Search(series, Config{Method: MethodFeatures, Period: 48})
	if err != nil {
		t.Fatalf("Search(features): %v", err)
	}
	if len(m.Signatures) == 0 || len(m.Signatures) > m.N {
		t.Errorf("signatures = %v", m.Signatures)
	}
	if len(m.Signatures)+len(m.Dependents) != m.N {
		t.Errorf("partition broken: %d + %d != %d", len(m.Signatures), len(m.Dependents), m.N)
	}
	if MethodFeatures.String() != "features" {
		t.Errorf("String = %q", MethodFeatures.String())
	}
}

func TestRefitMatchesSearch(t *testing.T) {
	series := boxSeries(9, 3, 4, 192, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	// Refitting the same series over the searched signature set must
	// reproduce the search's dependent fits bit for bit (Refit shares
	// fitDependents with Search).
	rm, err := Refit(series, m.Signatures)
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if rm.N != m.N || len(rm.Signatures) != len(m.Signatures) {
		t.Fatalf("refit shape: N=%d sigs=%d, want N=%d sigs=%d",
			rm.N, len(rm.Signatures), m.N, len(m.Signatures))
	}
	if len(rm.Dependents) != len(m.Dependents) {
		t.Fatalf("dependents: %d vs %d", len(rm.Dependents), len(m.Dependents))
	}
	for i, f := range m.Dependents {
		rf, ok := rm.Dependents[i]
		if !ok {
			t.Fatalf("dependent %d missing from refit", i)
		}
		if len(rf.Coef) != len(f.Coef) {
			t.Fatalf("dependent %d: %d coefs vs %d", i, len(rf.Coef), len(f.Coef))
		}
		for j := range f.Coef {
			if rf.Coef[j] != f.Coef[j] {
				t.Errorf("dependent %d coef %d: %v != %v", i, j, rf.Coef[j], f.Coef[j])
			}
		}
		if rf.R2 != f.R2 {
			t.Errorf("dependent %d R2: %v != %v", i, rf.R2, f.R2)
		}
	}
}

func TestRefitErrors(t *testing.T) {
	series := boxSeries(9, 2, 3, 96, 1)
	if _, err := Refit(series, nil); err == nil {
		t.Error("empty signatures accepted")
	}
	if _, err := Refit(series, []int{0, 99}); err == nil {
		t.Error("out-of-range signature accepted")
	}
	// Unsorted input is normalized, not rejected.
	if m, err := Refit(series, []int{2, 1}); err != nil {
		t.Errorf("unsorted signatures: %v", err)
	} else if m.Signatures[0] != 1 || m.Signatures[1] != 2 {
		t.Errorf("signatures not normalized: %v", m.Signatures)
	}
	if _, err := Refit(series, []int{1, 1}); err == nil {
		t.Error("duplicate signatures accepted")
	}
	if _, err := Refit(nil, []int{0}); err == nil {
		t.Error("no series accepted")
	}
}

// TestIsSignature: the model partitions the box's series — every
// series is a signature or a dependent, never both, and the signature
// set is sorted without duplicates.
func TestIsSignature(t *testing.T) {
	series := boxSeries(6, 2, 3, 96, 1)
	m, err := Search(series, Config{Method: MethodCBC})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(m.Signatures) || len(slices.Compact(slices.Clone(m.Signatures))) != len(m.Signatures) {
		t.Fatalf("signatures %v not strictly increasing", m.Signatures)
	}
	for i := 0; i < m.N; i++ {
		_, isDep := m.Dependents[i]
		if _, isSig := slices.BinarySearch(m.Signatures, i); isSig == isDep {
			t.Errorf("series %d: signature=%v dependent=%v, want exactly one", i, isSig, isDep)
		}
	}
	if len(m.Signatures)+len(m.Dependents) != m.N {
		t.Errorf("%d signatures + %d dependents != %d series", len(m.Signatures), len(m.Dependents), m.N)
	}
}
