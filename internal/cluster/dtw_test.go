package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atm/internal/race"
	"atm/internal/timeseries"
)

func TestDTWIdentical(t *testing.T) {
	s := timeseries.Series{1, 2, 3, 2, 1}
	if got := DTW(s, s); got != 0 {
		t.Errorf("DTW(s,s) = %v, want 0", got)
	}
}

func TestDTWKnownValue(t *testing.T) {
	// Hand-computed: p={0,1}, q={0,0,1}.
	// Optimal path aligns p1 with q1,q2 and p2 with q3: cost 0.
	p := timeseries.Series{0, 1}
	q := timeseries.Series{0, 0, 1}
	if got := DTW(p, q); got != 0 {
		t.Errorf("DTW = %v, want 0 (warping absorbs the repeat)", got)
	}
	// p={0,2}, q={1}: every alignment pairs both with 1 → 1+1 = 2.
	if got := DTW(timeseries.Series{0, 2}, timeseries.Series{1}); got != 2 {
		t.Errorf("DTW = %v, want 2", got)
	}
}

func TestDTWShiftTolerance(t *testing.T) {
	// DTW must see through a small phase shift that Euclidean distance
	// would punish.
	n := 50
	a := make(timeseries.Series, n)
	b := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		a[i] = math.Sin(2 * math.Pi * float64(i) / 25)
		b[i] = math.Sin(2 * math.Pi * float64(i+2) / 25)
	}
	var euclid float64
	for i := range a {
		d := a[i] - b[i]
		euclid += d * d
	}
	if got := DTW(a, b); got >= euclid/2 {
		t.Errorf("DTW = %v not much below Euclidean %v for shifted sines", got, euclid)
	}
}

func TestDTWEmpty(t *testing.T) {
	if got := DTW(timeseries.Series{}, timeseries.Series{1}); !math.IsInf(got, 1) {
		t.Errorf("DTW with empty series = %v, want +Inf", got)
	}
}

func TestDTWWindowWidensForLengthGap(t *testing.T) {
	p := timeseries.Series{1, 2, 3, 4, 5, 6}
	q := timeseries.Series{1, 6}
	got := DTWWindow(p, q, 0) // band must widen to len gap or no path exists
	if math.IsInf(got, 1) {
		t.Error("DTWWindow(0) returned +Inf; band should widen to the length gap")
	}
}

// Properties: DTW is symmetric, non-negative, and zero on identical
// inputs; windowed DTW is >= unconstrained DTW.
func TestDTWProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(20), 2+r.Intn(20)
		p := make(timeseries.Series, n)
		q := make(timeseries.Series, m)
		for i := range p {
			p[i] = r.NormFloat64()
		}
		for i := range q {
			q[i] = r.NormFloat64()
		}
		d1, d2 := DTW(p, q), DTW(q, p)
		if math.Abs(d1-d2) > 1e-9 || d1 < 0 {
			return false
		}
		if DTW(p, p) != 0 {
			return false
		}
		return DTWWindow(p, q, 3) >= d1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDTWMatrix(t *testing.T) {
	series := []timeseries.Series{
		{1, 2, 3, 4},
		{2, 4, 6, 8}, // same shape as 0 after z-norm → distance 0
		{9, 1, 9, 1}, // different shape
	}
	d, err := DTWMatrix(series, -1)
	if err != nil {
		t.Fatalf("DTWMatrix: %v", err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if got := d.At(0, 1); got > 1e-9 {
		t.Errorf("z-normalized identical shapes distance = %v, want ~0", got)
	}
	if got := d.At(0, 2); got < 1 {
		t.Errorf("distinct shapes distance = %v, want large", got)
	}
	if d.At(1, 2) != d.At(2, 1) {
		t.Error("matrix not symmetric")
	}
	if _, err := DTWMatrix([]timeseries.Series{{}}, -1); err == nil {
		t.Error("empty series accepted, want error")
	}
}

func TestDTWMatrixLengthMismatch(t *testing.T) {
	_, err := DTWMatrix([]timeseries.Series{{1, 2, 3}, {1, 2}}, -1)
	if !errors.Is(err, ErrSeriesLength) {
		t.Errorf("mismatched lengths: err = %v, want ErrSeriesLength", err)
	}
	_, _, err = DTWMatrixApprox([]timeseries.Series{{1, 2, 3}, {1, 2}}, -1, 0)
	if !errors.Is(err, ErrSeriesLength) {
		t.Errorf("approx mismatched lengths: err = %v, want ErrSeriesLength", err)
	}
}

func TestDistMatrixBounds(t *testing.T) {
	d := NewDistMatrix(3)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 3}} {
		func() {
			defer func() {
				r := recover()
				be, ok := r.(*BoundsError)
				if !ok {
					t.Errorf("Set(%d,%d): recovered %v, want *BoundsError", idx[0], idx[1], r)
					return
				}
				if be.N != 3 {
					t.Errorf("BoundsError.N = %d, want 3", be.N)
				}
			}()
			d.Set(idx[0], idx[1], 1)
		}()
		func() {
			defer func() {
				if _, ok := recover().(*BoundsError); !ok {
					t.Errorf("At(%d,%d) did not panic with *BoundsError", idx[0], idx[1])
				}
			}()
			d.At(idx[0], idx[1])
		}()
	}
	// In-range stays silent.
	d.Set(0, 2, 5)
	if d.At(2, 0) != 5 {
		t.Error("symmetric Set lost")
	}
}

// randomSeriesSet builds n same-length random series.
func randomSeriesSet(r *rand.Rand, n, m int) []timeseries.Series {
	out := make([]timeseries.Series, n)
	for i := range out {
		s := make(timeseries.Series, m)
		for t := range s {
			s[t] = r.NormFloat64()*10 + 5*math.Sin(float64(t)/7+float64(i))
		}
		out[i] = s
	}
	return out
}

// Property: the concurrent upper-triangle computation is bit-identical
// to the sequential one at any worker count, for windowed and
// unconstrained DTW alike.
func TestDTWMatrixParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		series := randomSeriesSet(r, 2+r.Intn(14), 4+r.Intn(60))
		window := []int{-1, 0, 3, 8}[r.Intn(4)]
		seq, err := DTWMatrix(series, window, WithWorkers(1))
		if err != nil {
			return false
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := DTWMatrix(series, window, WithWorkers(workers))
			if err != nil {
				return false
			}
			for i := 0; i < seq.Len(); i++ {
				for j := 0; j < seq.Len(); j++ {
					if seq.At(i, j) != par.At(i, j) { // exact, not approximate
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Admissibility: LB_Keogh never exceeds the true DTW distance. 1000
// random pairs across windowed and unconstrained configurations.
func TestLBKeoghAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	windows := []int{-1, 2, 5, 12, 40}
	for trial := 0; trial < 1000; trial++ {
		m := 8 + r.Intn(72)
		pair := randomSeriesSet(r, 2, m)
		p, q := pair[0].Normalize(), pair[1].Normalize()
		w := windows[trial%len(windows)]
		lower := make([]float64, m)
		upper := make([]float64, m)
		envelope(q, w, lower, upper)
		lb := lbKeogh(p, lower, upper)
		dtw := DTWWindow(p, q, w)
		if lb > dtw+1e-9 {
			t.Fatalf("trial %d (m=%d w=%d): LB %v > DTW %v", trial, m, w, lb, dtw)
		}
	}
}

// The envelope must be the exact sliding min/max over the band.
func TestEnvelopeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := 1 + r.Intn(40)
		q := make(timeseries.Series, m)
		for i := range q {
			q[i] = r.NormFloat64()
		}
		w := r.Intn(m + 3)
		if trial%5 == 0 {
			w = -1
		}
		lower := make([]float64, m)
		upper := make([]float64, m)
		envelope(q, w, lower, upper)
		for j := 0; j < m; j++ {
			lo, hi := j-w, j+w
			if w < 0 {
				lo, hi = 0, m-1
			}
			if lo < 0 {
				lo = 0
			}
			if hi > m-1 {
				hi = m - 1
			}
			wantLo, wantHi := math.Inf(1), math.Inf(-1)
			for x := lo; x <= hi; x++ {
				wantLo = math.Min(wantLo, q[x])
				wantHi = math.Max(wantHi, q[x])
			}
			if lower[j] != wantLo || upper[j] != wantHi {
				t.Fatalf("trial %d (m=%d w=%d) j=%d: envelope [%v,%v], want [%v,%v]",
					trial, m, w, j, lower[j], upper[j], wantLo, wantHi)
			}
		}
	}
}

// DTWMatrixApprox must never overestimate, must be exact at or below
// the cutoff, and must report a sane pruned fraction.
func TestDTWMatrixApproxAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		series := randomSeriesSet(r, 3+r.Intn(12), 16+r.Intn(48))
		window := []int{-1, 4, 10}[trial%3]
		exact, err := DTWMatrix(series, window)
		if err != nil {
			t.Fatal(err)
		}
		approx, frac, err := DTWMatrixApprox(series, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		if frac < 0 || frac > 1 {
			t.Fatalf("pruned fraction %v out of [0,1]", frac)
		}
		for i := 0; i < exact.Len(); i++ {
			for j := i + 1; j < exact.Len(); j++ {
				a, e := approx.At(i, j), exact.At(i, j)
				if a > e+1e-9 {
					t.Fatalf("trial %d (%d,%d): approx %v overestimates exact %v", trial, i, j, a, e)
				}
			}
		}
	}
}

// A generous explicit cutoff prunes nothing and reproduces the exact
// matrix bit for bit.
func TestDTWMatrixApproxHighCutoffIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	series := randomSeriesSet(r, 8, 40)
	exact, err := DTWMatrix(series, -1)
	if err != nil {
		t.Fatal(err)
	}
	approx, frac, err := DTWMatrixApprox(series, -1, math.MaxFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Errorf("pruned fraction %v with MaxFloat64 cutoff, want 0", frac)
	}
	for i := 0; i < exact.Len(); i++ {
		for j := 0; j < exact.Len(); j++ {
			if exact.At(i, j) != approx.At(i, j) {
				t.Fatalf("(%d,%d): approx %v != exact %v", i, j, approx.At(i, j), exact.At(i, j))
			}
		}
	}
}

// The pooled scratch keeps the public DTW entry points allocation-free
// in steady state (the acceptance bar for the inner kernel).
func TestDTWZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pair := randomSeriesSet(r, 2, 96)
	p, q := pair[0], pair[1]
	DTW(p, q) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { DTW(p, q) }); allocs > 0 {
		t.Errorf("DTW allocates %.1f objects per call, want 0", allocs)
	}
}

// dtwKernelRef is the row-by-row recurrence dtwKernel replaced, kept
// as the oracle: two rolling float rows, every out-of-band cell
// refilled with +Inf per row, float min chain.
func dtwKernelRef(p, q timeseries.Series, w int, abandon float64) (v float64, exact bool) {
	n, m := len(p), len(q)
	if n == 0 || m == 0 {
		return math.Inf(1), true
	}
	if w >= 0 {
		if d := n - m; d < 0 {
			if w < -d {
				w = -d
			}
		} else if w < d {
			w = d
		}
	}
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = math.Inf(1)
		}
		lo, hi := 1, m
		if w >= 0 {
			if lo < i-w {
				lo = i - w
			}
			if hi > i+w {
				hi = i + w
			}
		}
		rowMin := math.Inf(1)
		for j := lo; j <= hi; j++ {
			d := p[i-1] - q[j-1]
			d *= d
			best := prev[j-1] // match
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			c := d + best
			cur[j] = c
			if c < rowMin {
				rowMin = c
			}
		}
		if rowMin > abandon {
			return rowMin, false
		}
		prev, cur = cur, prev
	}
	return prev[m], true
}

// checkKernel fails unless dtwKernel and the oracle agree bit for bit
// on both the value and the exact flag.
func checkKernel(t *testing.T, p, q timeseries.Series, w int, abandon float64, sc *dtwScratch) {
	t.Helper()
	want, wantExact := dtwKernelRef(p, q, w, abandon)
	got, gotExact := dtwKernel(p, q, w, abandon, sc)
	if math.Float64bits(got) != math.Float64bits(want) || gotExact != wantExact {
		t.Fatalf("n=%d m=%d w=%d abandon=%v: kernel (%v, %v), oracle (%v, %v)",
			len(p), len(q), w, abandon, got, gotExact, want, wantExact)
	}
}

func TestDTWKernelMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sc := new(dtwScratch)
	for it := 0; it < 4000; it++ {
		// Lengths straddle the block height, so odd and even row
		// counts, leftover blocks of 1-3 rows and n != m all occur.
		n, m := 1+r.Intn(45), 1+r.Intn(45)
		pair := randomSeriesSet(r, 2, max(n, m))
		p, q := pair[0][:n].Normalize(), pair[1][:m].Normalize()
		if it%5 == 0 {
			q = p
		}
		w := []int{-1, 0, 1, 12, len(q), len(q) + 7}[r.Intn(6)]
		full, _ := dtwKernelRef(p, q, w, math.Inf(1))
		for _, abandon := range []float64{math.Inf(1), 0, r.Float64() * full, r.Float64() * 2 * full} {
			checkKernel(t, p, q, w, abandon, sc)
		}
	}
}

// FuzzDTWKernel derives two series, a band and an abandon threshold
// from the input bytes and holds the kernel to the oracle.
func FuzzDTWKernel(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 6, 7}, 2)
	f.Add([]byte{9, 12, 200, 255, 0, 17, 17, 17, 90, 3, 8, 41, 77, 1, 2, 250, 9, 9, 30}, -1)
	f.Add([]byte{1, 1, 0, 128}, 0)

	sc := new(dtwScratch)
	f.Fuzz(func(t *testing.T, data []byte, w int) {
		if len(data) < 4 || len(data) > 400 {
			return
		}
		// Byte 0 splits the rest into p and q, byte 1 scales the
		// abandon threshold; samples are bytes centred on zero.
		body := data[2:]
		n := 1 + int(data[0])%(len(body)-1)
		series := make(timeseries.Series, len(body))
		for i, b := range body {
			series[i] = (float64(b) - 128) / 16
		}
		p, q := series[:n], series[n:]
		if w > len(body) {
			w = len(body)
		} else if w < -1 {
			w = -1
		}
		full, _ := dtwKernelRef(p, q, w, math.Inf(1))
		for _, abandon := range []float64{math.Inf(1), full * float64(data[1]) / 128} {
			checkKernel(t, p, q, w, abandon, sc)
		}
	})
}

// The kernel on a retained scratch allocates nothing, whatever the
// band or the abandon threshold.
func TestDTWKernelAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	pair := randomSeriesSet(rand.New(rand.NewSource(17)), 2, 96)
	p, q := pair[0].Normalize(), pair[1].Normalize()
	sc := new(dtwScratch)
	dtwKernel(p, q, -1, math.Inf(1), sc) // grow the scratch
	for _, c := range []struct {
		w       int
		abandon float64
	}{{-1, math.Inf(1)}, {12, math.Inf(1)}, {12, 5}} {
		if allocs := testing.AllocsPerRun(100, func() { dtwKernel(p, q, c.w, c.abandon, sc) }); allocs > 0 {
			t.Errorf("w=%d abandon=%v: %.1f allocs per call, want 0", c.w, c.abandon, allocs)
		}
	}
}

// A NaN (trace gap) or infinite sample is an error for every matrix
// builder and NaN for the exported pairwise distances.
func TestNonFiniteInput(t *testing.T) {
	clean := randomSeriesSet(rand.New(rand.NewSource(5)), 4, 32)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		series := make([]timeseries.Series, len(clean))
		for i, s := range clean {
			series[i] = s.Clone()
		}
		series[2][7] = bad

		if got := DTW(series[2], series[0]); !math.IsNaN(got) {
			t.Errorf("DTW with a %v sample = %v, want NaN", bad, got)
		}
		if got := DTWWindow(series[0], series[2], 3); !math.IsNaN(got) {
			t.Errorf("DTWWindow with a %v sample = %v, want NaN", bad, got)
		}
		if _, err := DTWMatrix(series, -1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("DTWMatrix with a %v sample: err = %v, want ErrNonFinite", bad, err)
		}
		if _, _, err := DTWMatrixApprox(series, 4, 0); !errors.Is(err, ErrNonFinite) {
			t.Errorf("DTWMatrixApprox with a %v sample: err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := DTWSearch(series, -1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("DTWSearch with a %v sample: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// BenchmarkDTWKernel times one pair at the serving path's three
// shapes: the paper's unconstrained 480x480 matrix, the tuned search's
// band of 12, and a banded pair that abandons early.
func BenchmarkDTWKernel(b *testing.B) {
	pair := randomSeriesSet(rand.New(rand.NewSource(3)), 2, 480)
	p, q := pair[0].Normalize(), pair[1].Normalize()
	sc := new(dtwScratch)
	full, _ := dtwKernel(p, q, 12, math.Inf(1), sc)
	for _, c := range []struct {
		name    string
		w       int
		abandon float64
	}{
		{"exact480", -1, math.Inf(1)},
		{"band12", 12, math.Inf(1)},
		{"abandon", 12, full / 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dtwKernel(p, q, c.w, c.abandon, sc)
			}
		})
	}
}
