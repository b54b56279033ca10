package cluster

import (
	"math"
	"math/rand"
	"testing"

	"atm/internal/timeseries"
)

// envSeries builds n correlated random-walk series of length total.
func envSeries(rng *rand.Rand, n, total int) []timeseries.Series {
	out := make([]timeseries.Series, n)
	for i := range out {
		s := make(timeseries.Series, total)
		v := 10.0
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v + 3*math.Sin(float64(j)/11+float64(i))
		}
		out[i] = s
	}
	return out
}

func windowAll(series []timeseries.Series, from, to int) []timeseries.Series {
	out := make([]timeseries.Series, len(series))
	for i, s := range series {
		out[i] = s.Slice(from, to)
	}
	return out
}

// TestEnvelopeBankBitIdentical rolls windows through a bank and
// checks the normalized series and envelopes are bit-identical to the
// from-scratch path, across the banded, global and degenerate-band
// regimes.
func TestEnvelopeBankBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, m, shift = 5, 64, 8
	total := m + shift*12
	series := envSeries(rng, n, total)
	for _, window := range []int{-1, 0, 3, 9, 20, m / 2, m - 1, m} {
		bank := NewEnvelopeBank(shift)
		for off := 0; off+m <= total; off += shift {
			win := windowAll(series, off, off+m)
			norm, lower, upper := new(approxScratch).views(n, m)
			bank.update(win, window, norm, lower, upper)
			wantNorm, err := normalized(win)
			if err != nil {
				t.Fatalf("window %d offset %d: normalized: %v", window, off, err)
			}
			wl := make([]float64, m)
			wu := make([]float64, m)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					if norm[i][j] != wantNorm[i][j] {
						t.Fatalf("window %d offset %d series %d: norm[%d] = %g, want %g",
							window, off, i, j, norm[i][j], wantNorm[i][j])
					}
				}
				envelope(wantNorm[i], window, wl, wu)
				for j := 0; j < m; j++ {
					if lower[i][j] != wl[j] || upper[i][j] != wu[j] {
						t.Fatalf("window %d offset %d series %d: envelope[%d] = (%g,%g), want (%g,%g)",
							window, off, i, j, lower[i][j], upper[i][j], wl[j], wu[j])
					}
				}
			}
		}
		rolled, full := bank.Stats()
		if full != n {
			t.Fatalf("window %d: %d full recomputes, want %d (first window only)", window, full, n)
		}
		if rolled == 0 {
			t.Fatalf("window %d: no incremental rolls recorded", window)
		}
	}
}

// TestEnvelopeBankFallsBackOnNonRoll checks a non-rolled window (wrong
// shift, changed values, reset) is recomputed fully and still correct.
func TestEnvelopeBankFallsBackOnNonRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n, m, shift, window = 3, 40, 5, 6
	series := envSeries(rng, n, m+10*shift)
	bank := NewEnvelopeBank(shift)
	check := func(off int) {
		win := windowAll(series, off, off+m)
		norm, lower, upper := new(approxScratch).views(n, m)
		bank.update(win, window, norm, lower, upper)
		wantNorm, _ := normalized(win)
		wl := make([]float64, m)
		wu := make([]float64, m)
		for i := 0; i < n; i++ {
			envelope(wantNorm[i], window, wl, wu)
			for j := 0; j < m; j++ {
				if norm[i][j] != wantNorm[i][j] || lower[i][j] != wl[j] || upper[i][j] != wu[j] {
					t.Fatalf("offset %d series %d pos %d: mismatch", off, i, j)
				}
			}
		}
	}
	check(0)
	check(shift)     // roll
	check(3 * shift) // jumped two shifts: not a roll, must still be right
	_, full := bank.Stats()
	if full != 2*n {
		t.Fatalf("full recomputes = %d, want %d", full, 2*n)
	}
	bank.Reset()
	check(4 * shift) // would be a roll, but Reset forces recompute
	_, full = bank.Stats()
	if full != 3*n {
		t.Fatalf("full recomputes after reset = %d, want %d", full, 3*n)
	}
}

// TestDTWMatrixApproxWithBankEqual checks the full approximate matrix
// is bit-identical with and without a bank, across rolled windows.
func TestDTWMatrixApproxWithBankEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n, m, shift = 8, 48, 6
	total := m + 8*shift
	series := envSeries(rng, n, total)
	for _, window := range []int{-1, 5, 12} {
		bank := NewEnvelopeBank(shift)
		for off := 0; off+m <= total; off += shift {
			win := windowAll(series, off, off+m)
			want, wantPruned, err := DTWMatrixApprox(win, window, 0, WithWorkers(1))
			if err != nil {
				t.Fatalf("window %d offset %d: plain: %v", window, off, err)
			}
			got, gotPruned, err := DTWMatrixApprox(win, window, 0, WithWorkers(1), WithEnvelopeBank(bank))
			if err != nil {
				t.Fatalf("window %d offset %d: banked: %v", window, off, err)
			}
			if !got.Equal(want) {
				t.Fatalf("window %d offset %d: matrices differ", window, off)
			}
			if gotPruned != wantPruned {
				t.Fatalf("window %d offset %d: pruned %g vs %g", window, off, gotPruned, wantPruned)
			}
		}
		rolled, _ := bank.Stats()
		if rolled == 0 {
			t.Fatalf("window %d: bank never rolled", window)
		}
	}
}

// TestEnvelopeRangeMatchesFull cross-checks the partial recompute
// helper against the full envelope on random ranges.
func TestEnvelopeRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 50; trial++ {
		m := 10 + rng.Intn(60)
		w := rng.Intn(m)
		q := make(timeseries.Series, m)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		wantL := make([]float64, m)
		wantU := make([]float64, m)
		envelope(q, w, wantL, wantU)
		from := rng.Intn(m)
		to := from + rng.Intn(m-from)
		gotL := make([]float64, m)
		gotU := make([]float64, m)
		sc := new(envScratch)
		envelopeRange(q, w, from, to, gotL, gotU, sc)
		for j := from; j <= to; j++ {
			if gotL[j] != wantL[j] || gotU[j] != wantU[j] {
				t.Fatalf("trial %d m=%d w=%d [%d,%d] pos %d: (%g,%g) want (%g,%g)",
					trial, m, w, from, to, j, gotL[j], gotU[j], wantL[j], wantU[j])
			}
		}
	}
}
