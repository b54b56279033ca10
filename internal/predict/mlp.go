package predict

import (
	"fmt"
	"math"

	"atm/internal/timeseries"
)

// MLP is a feed-forward neural-network model over lagged samples plus a
// sinusoidal time-of-day encoding — the reproduction of the paper's
// PRACTISE-style temporal model. Training is orders of magnitude more
// expensive than the spatial linear models, which is exactly the cost
// asymmetry that motivates ATM's signature-set reduction.
//
// With Period > 0 the lag window is taken one season earlier (the same
// time yesterday), so multi-step forecasts up to a full season consume
// only real history: long-horizon prediction stays stable instead of
// compounding its own errors — the property a one-day resizing horizon
// needs. With Period == 0 the model is a classic recursive
// autoregressor.
//
// The zero value is not usable; fill in the exported fields or use
// DefaultMLP. A model keeps its weights and one normalized copy of the
// fitted history; refitting a retained model reuses both.
type MLP struct {
	// Lags is the number of lagged samples used as inputs. Must be
	// positive.
	Lags int
	// Period, if positive, takes the lag window from one season
	// earlier and appends sin/cos time-of-day features.
	Period int
	// Hidden lists hidden-layer widths. Empty means one linear layer.
	Hidden []int
	// Epochs is the number of SGD passes.
	Epochs int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the SGD momentum coefficient.
	Momentum float64
	// Seed makes training deterministic.
	Seed int64

	net  flatNet
	norm []float64 // the fitted history, normalized
	mean float64
	std  float64
}

// DefaultMLP returns an MLP configured for the paper's 15-minute
// usage series: one day of lags is excessive, so it uses a short lag
// window plus the seasonal encoding, one hidden layer, and a seed for
// reproducibility.
func DefaultMLP(period int) *MLP {
	return &MLP{
		Lags:         8,
		Period:       period,
		Hidden:       []int{16},
		Epochs:       60,
		LearningRate: 0.01,
		Momentum:     0.9,
		Seed:         1,
	}
}

// Name implements Model.
func (m *MLP) Name() string { return fmt.Sprintf("mlp(lags=%d,hidden=%v)", m.Lags, m.Hidden) }

// featureLen returns the input dimension.
func (m *MLP) featureLen() int {
	n := m.Lags
	if m.Period > 0 {
		n += 2
	}
	return n
}

// lagStart returns the index of the first (most recent) lag used to
// predict position t: t-1 for the recursive model, the same slot one
// season earlier for the seasonal model.
func (m *MLP) lagStart(t int) int {
	if m.Period > 0 {
		return t - m.Period + m.Lags/2 // window centered on last season's slot
	}
	return t - 1
}

// minHistory returns the first trainable position.
func (m *MLP) minHistory() int {
	if m.Period > 0 {
		// lagStart(t)-Lags+1 >= 0 and the centered window must not
		// reach past t-1.
		return m.Period + m.Lags
	}
	return m.Lags
}

func (m *MLP) normalize(v float64) float64 {
	if m.std > 0 {
		return (v - m.mean) / m.std
	}
	return v - m.mean
}

func (m *MLP) denormalize(v float64) float64 {
	if m.std > 0 {
		return v*m.std + m.mean
	}
	return v + m.mean
}

// Fit implements Model.
func (m *MLP) Fit(history timeseries.Series) error {
	if m.Lags <= 0 {
		return fmt.Errorf("predict: mlp lags %d: must be positive", m.Lags)
	}
	if m.Epochs <= 0 || m.LearningRate <= 0 {
		return fmt.Errorf("predict: mlp epochs %d / lr %v: must be positive", m.Epochs, m.LearningRate)
	}
	first := m.minHistory()
	if len(history) < first+2 {
		return fmt.Errorf("predict: %d samples for %d lags (period %d): %w",
			len(history), m.Lags, m.Period, ErrShortHistory)
	}
	m.mean = history.Mean()
	m.std = history.Std()
	m.norm = grow(m.norm, len(history))
	for t, v := range history {
		m.norm[t] = m.normalize(v)
	}

	s := trainPool.Get().(*trainScratch)
	defer trainPool.Put(s)
	s.rng.Seed(m.Seed)
	m.net.reset(m.featureLen(), m.Hidden, s.rng)
	s.vel = grow(s.vel, len(m.net.params))
	clear(s.vel)
	s.act = grow(s.act, m.net.units())
	s.delta = grow(s.delta, m.net.units())
	s.wave = grow(s.wave, 2*m.Period)
	for slot := 0; slot < m.Period; slot++ {
		s.wave[2*slot], s.wave[2*slot+1] = m.timeOfDay(slot)
	}
	// One sample per position from first on, read off m.norm and s.wave.
	order := grow(s.order, len(history)-first)
	for i := range order {
		order[i] = i
	}
	s.order = order
	swap := func(i, j int) { order[i], order[j] = order[j], order[i] }
	for e := 0; e < m.Epochs; e++ {
		s.rng.Shuffle(len(order), swap)
		for _, i := range order {
			t := first + i
			start := m.lagStart(t)
			for k := 0; k < m.Lags; k++ {
				s.act[k] = m.norm[start-k]
			}
			if m.Period > 0 {
				slot := t % m.Period
				s.act[m.Lags], s.act[m.Lags+1] = s.wave[2*slot], s.wave[2*slot+1]
			}
			m.net.step(s, m.norm[t], m.LearningRate, m.Momentum)
		}
	}
	return nil
}

// timeOfDay returns the sinusoidal encoding of a within-season slot.
func (m *MLP) timeOfDay(slot int) (sin, cos float64) {
	ang := 2 * math.Pi * float64(slot) / float64(m.Period)
	return math.Sin(ang), math.Cos(ang)
}

// Forecast implements Model. The seasonal model (Period > 0) reads its
// lag windows from the recorded history for the first Period steps and
// from its own forecasts beyond; the recursive model always feeds
// forecasts back.
func (m *MLP) Forecast(horizon int) (timeseries.Series, error) {
	return m.ForecastInto(nil, horizon)
}

// ForecastInto implements IntoForecaster. It reads the fitted state
// and writes only dst, so the result stays valid across later Fits.
func (m *MLP) ForecastInto(dst timeseries.Series, horizon int) (timeseries.Series, error) {
	if m.norm == nil {
		return nil, ErrNotFitted
	}
	out := grow(dst, horizon)
	s := trainPool.Get().(*trainScratch)
	defer trainPool.Put(s)
	s.act = grow(s.act, m.net.units())
	n := len(m.norm)
	for t := range out {
		start := m.lagStart(n + t)
		for k := 0; k < m.Lags; k++ {
			if idx := start - k; idx < n {
				s.act[k] = m.norm[idx]
			} else {
				s.act[k] = m.normalize(out[idx-n])
			}
		}
		if m.Period > 0 {
			s.act[m.Lags], s.act[m.Lags+1] = m.timeOfDay((n + t) % m.Period)
		}
		out[t] = m.denormalize(m.net.forward(s.act))
	}
	return out, nil
}
