package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"atm/internal/timeseries"
)

// seasonal builds a noiseless daily pattern repeated over days.
func seasonal(days, period int, f func(slot int) float64) timeseries.Series {
	s := make(timeseries.Series, days*period)
	for i := range s {
		s[i] = f(i % period)
	}
	return s
}

func sinPattern(period int) func(int) float64 {
	return func(slot int) float64 {
		return 50 + 30*math.Sin(2*math.Pi*float64(slot)/float64(period))
	}
}

// noisySeasonal is the sin pattern plus seeded Gaussian noise.
func noisySeasonal(seed int64, days, period int, sigma float64) timeseries.Series {
	r := rand.New(rand.NewSource(seed))
	s := seasonal(days, period, sinPattern(period))
	for i := range s {
		s[i] += sigma * r.NormFloat64()
	}
	return s
}

func TestSeasonalNaivePerfectPeriodicity(t *testing.T) {
	period := 24
	hist := seasonal(3, period, sinPattern(period))
	m := &SeasonalNaive{Period: period}
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(period)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	for i := range fc {
		want := sinPattern(period)(i)
		if math.Abs(fc[i]-want) > 1e-9 {
			t.Fatalf("fc[%d] = %v, want %v", i, fc[i], want)
		}
	}
}

func TestSeasonalNaiveErrors(t *testing.T) {
	m := &SeasonalNaive{Period: 0}
	if err := m.Fit(timeseries.Series{1, 2}); err == nil {
		t.Error("zero period accepted")
	}
	m = &SeasonalNaive{Period: 10}
	if err := m.Fit(timeseries.Series{1, 2}); !errors.Is(err, ErrShortHistory) {
		t.Errorf("err = %v, want ErrShortHistory", err)
	}
	if _, err := m.Forecast(5); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestSeasonalNaivePhase(t *testing.T) {
	// History of 1.5 periods: forecast must continue from the correct
	// within-period phase.
	period := 4
	hist := timeseries.Series{0, 1, 2, 3, 0, 1} // ends mid-period at slot 1
	m := &SeasonalNaive{Period: period}
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(4)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	// Last full period window is hist[2:6] = {2,3,0,1}; forecast
	// repeats it.
	want := timeseries.Series{2, 3, 0, 1}
	for i := range want {
		if fc[i] != want[i] {
			t.Errorf("fc = %v, want %v", fc, want)
			break
		}
	}
}

func TestSeasonalMean(t *testing.T) {
	period := 6
	hist := seasonal(4, period, sinPattern(period))
	m := &SeasonalMean{Period: period}
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(period)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	for i := range fc {
		want := sinPattern(period)(i)
		if math.Abs(fc[i]-want) > 1e-9 {
			t.Fatalf("fc[%d] = %v, want %v", i, fc[i], want)
		}
	}
	// Errors.
	bad := &SeasonalMean{Period: -1}
	if err := bad.Fit(hist); err == nil {
		t.Error("negative period accepted")
	}
	unfitted := &SeasonalMean{Period: period}
	if _, err := unfitted.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestSeasonalMeanAveragesNoise(t *testing.T) {
	// Alternating noise around a flat 10: mean model should recover 10.
	hist := timeseries.Series{9, 11, 9, 11, 11, 9, 11, 9} // period 2
	m := &SeasonalMean{Period: 2}
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	fc, _ := m.Forecast(2)
	for _, v := range fc {
		if v != 10 {
			t.Errorf("fc = %v, want all 10", fc)
		}
	}
}

func TestARRecoverLinearProcess(t *testing.T) {
	// y[t] = 0.8*y[t-1] + 5 converges to 25; AR(1) should learn it.
	hist := make(timeseries.Series, 200)
	hist[0] = 1
	for i := 1; i < len(hist); i++ {
		hist[i] = 0.8*hist[i-1] + 5
	}
	m := &AR{P: 1}
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(10)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	for i, v := range fc {
		if math.Abs(v-25) > 0.1 {
			t.Errorf("fc[%d] = %v, want ~25", i, v)
		}
	}
}

func TestARSeasonalLag(t *testing.T) {
	period := 12
	hist := seasonal(6, period, sinPattern(period))
	m := &AR{P: 2, Period: period}
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(period)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	mape, err := timeseries.MAPE(seasonal(1, period, sinPattern(period)), fc)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 0.05 {
		t.Errorf("seasonal AR MAPE = %v, want < 5%%", mape)
	}
}

func TestARErrors(t *testing.T) {
	m := &AR{P: 0}
	if err := m.Fit(timeseries.Series{1, 2, 3}); err == nil {
		t.Error("zero order accepted")
	}
	m = &AR{P: 3}
	if err := m.Fit(timeseries.Series{1, 2, 3, 4}); !errors.Is(err, ErrShortHistory) {
		t.Errorf("err = %v, want ErrShortHistory", err)
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestARName(t *testing.T) {
	if got := (&AR{P: 2}).Name(); got != "ar(2)" {
		t.Errorf("Name = %q", got)
	}
	if got := (&AR{P: 2, Period: 96}).Name(); got != "ar(2)+s96" {
		t.Errorf("Name = %q", got)
	}
}

func TestMLPLearnsSeasonalPattern(t *testing.T) {
	period := 24
	hist := seasonal(5, period, sinPattern(period))
	m := DefaultMLP(period)
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(period)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	want := seasonal(1, period, sinPattern(period))
	mape, err := timeseries.MAPE(want, fc)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 0.15 {
		t.Errorf("MLP MAPE on clean seasonal data = %v, want < 15%%", mape)
	}
}

func TestMLPDeterministic(t *testing.T) {
	period := 12
	hist := seasonal(4, period, sinPattern(period))
	run := func() timeseries.Series {
		m := DefaultMLP(period)
		m.Epochs = 10
		if err := m.Fit(hist); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		fc, err := m.Forecast(6)
		if err != nil {
			t.Fatalf("Forecast: %v", err)
		}
		return fc
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic forecast: %v vs %v", a, b)
		}
	}
}

func TestMLPErrors(t *testing.T) {
	m := &MLP{Lags: 0, Epochs: 1, LearningRate: 0.1}
	if err := m.Fit(timeseries.Series{1, 2, 3}); err == nil {
		t.Error("zero lags accepted")
	}
	m = &MLP{Lags: 2, Epochs: 0, LearningRate: 0.1}
	if err := m.Fit(timeseries.Series{1, 2, 3, 4, 5}); err == nil {
		t.Error("zero epochs accepted")
	}
	m = &MLP{Lags: 10, Epochs: 1, LearningRate: 0.1}
	if err := m.Fit(timeseries.Series{1, 2, 3}); !errors.Is(err, ErrShortHistory) {
		t.Errorf("err = %v, want ErrShortHistory", err)
	}
	if _, err := m.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestMLPConstantSeries(t *testing.T) {
	// Constant history (std = 0) must not produce NaNs.
	hist := make(timeseries.Series, 50)
	for i := range hist {
		hist[i] = 42
	}
	m := DefaultMLP(0)
	m.Epochs = 5
	if err := m.Fit(hist); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	fc, err := m.Forecast(5)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	for i, v := range fc {
		if math.IsNaN(v) || math.Abs(v-42) > 5 {
			t.Errorf("fc[%d] = %v, want ~42", i, v)
		}
	}
}

// All models implement Model and can be swapped freely — the paper's
// "any temporal model can be plugged in" property.
func TestModelInterfaceCompliance(t *testing.T) {
	period := 12
	hist := seasonal(5, period, sinPattern(period))
	models := []Model{
		&SeasonalNaive{Period: period},
		&SeasonalMean{Period: period},
		&AR{P: 2, Period: period},
		func() Model { m := DefaultMLP(period); m.Epochs = 5; return m }(),
	}
	for _, m := range models {
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
		if err := m.Fit(hist); err != nil {
			t.Errorf("%s Fit: %v", m.Name(), err)
			continue
		}
		fc, err := m.Forecast(period)
		if err != nil {
			t.Errorf("%s Forecast: %v", m.Name(), err)
			continue
		}
		if len(fc) != period {
			t.Errorf("%s horizon = %d, want %d", m.Name(), len(fc), period)
		}
		for i, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s fc[%d] = %v", m.Name(), i, v)
			}
		}
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	// Classic nonlinear sanity check for the backprop implementation.
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	rng := newTestRNG()
	net := newNetwork([]int{2, 8, 1}, rng)
	loss := net.train(xs, ys, 2000, 0.05, 0.9, rng)
	if loss > 0.05 {
		t.Fatalf("XOR training loss = %v, want < 0.05", loss)
	}
	for i, x := range xs {
		out := net.predict(x)[0]
		if math.Abs(out-ys[i][0]) > 0.3 {
			t.Errorf("xor(%v) = %v, want %v", x, out, ys[i][0])
		}
	}
}

func TestNetworkPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-layer network did not panic")
		}
	}()
	newNetwork([]int{3}, newTestRNG())
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(7)) }
