// Package predict implements the pluggable temporal prediction models
// ATM applies to signature series (paper Section III-B). The paper uses
// neural networks (PRACTISE); this package provides a from-scratch
// feed-forward MLP plus two cheap baselines (seasonal naive and an
// autoregressive model), all behind a single Model interface so any of
// them can be plugged into the ATM framework — exactly the property the
// paper claims for its own design.
package predict

import (
	"errors"
	"fmt"

	"atm/internal/timeseries"
)

// Errors returned by models.
var (
	// ErrNotFitted indicates Forecast was called before Fit.
	ErrNotFitted = errors.New("predict: model not fitted")
	// ErrShortHistory indicates the training history is too short for
	// the model's configuration.
	ErrShortHistory = errors.New("predict: history too short")
)

// Model is a temporal, single-series prediction model. Fit trains on a
// history; Forecast extrapolates the given number of steps past the end
// of that history.
type Model interface {
	// Fit trains the model on the history. It may be called again to
	// retrain on new data.
	Fit(history timeseries.Series) error
	// Forecast returns the next horizon values after the fitted
	// history.
	Forecast(horizon int) (timeseries.Series, error)
	// Name identifies the model in reports.
	Name() string
}

// IntoForecaster is implemented by models whose Forecast can write
// into a caller-provided buffer without allocating. Steady-state
// pipelines type-assert for it and fall back to Forecast otherwise.
type IntoForecaster interface {
	Model
	// ForecastInto writes the next horizon values into dst (grown as
	// needed) and returns the resulting slice. Same values as
	// Forecast.
	ForecastInto(dst timeseries.Series, horizon int) (timeseries.Series, error)
}

// SeasonalNaive forecasts each step as the value one season earlier:
// the simplest model that exploits the strong daily periodicity of data
// center usage (96 fifteen-minute windows per day in the paper's
// traces).
type SeasonalNaive struct {
	// Period is the season length in samples. It must be positive.
	Period int

	history timeseries.Series
}

// Name implements Model.
func (s *SeasonalNaive) Name() string { return "seasonal-naive" }

// Fit implements Model.
func (s *SeasonalNaive) Fit(history timeseries.Series) error {
	if s.Period <= 0 {
		return fmt.Errorf("predict: seasonal naive period %d: must be positive", s.Period)
	}
	if len(history) < s.Period {
		return fmt.Errorf("predict: %d samples for period %d: %w", len(history), s.Period, ErrShortHistory)
	}
	// Copy (not Clone) so refits on a same-length window reuse the
	// buffer; an empty fitted history is marked by a non-nil empty
	// slice so Forecast's not-fitted check stays buffer-reuse safe.
	s.history = append(s.history[:0], history...)
	return nil
}

// Forecast implements Model.
func (s *SeasonalNaive) Forecast(horizon int) (timeseries.Series, error) {
	return s.ForecastInto(nil, horizon)
}

// ForecastInto implements IntoForecaster.
func (s *SeasonalNaive) ForecastInto(dst timeseries.Series, horizon int) (timeseries.Series, error) {
	if s.history == nil {
		return nil, ErrNotFitted
	}
	out := grow(dst, horizon)
	n := len(s.history)
	for t := 0; t < horizon; t++ {
		// Index of the same within-season slot in the last full season.
		idx := n - s.Period + t%s.Period
		out[t] = s.history[idx]
	}
	return out, nil
}

// SeasonalMean forecasts each within-season slot as the mean of that
// slot over all complete seasons in the history — a smoother baseline
// than SeasonalNaive.
type SeasonalMean struct {
	// Period is the season length in samples. It must be positive.
	Period int

	slots  timeseries.Series
	counts []int
	phase  int // within-season position where the forecast starts
}

// Name implements Model.
func (s *SeasonalMean) Name() string { return "seasonal-mean" }

// Fit implements Model.
func (s *SeasonalMean) Fit(history timeseries.Series) error {
	if s.Period <= 0 {
		return fmt.Errorf("predict: seasonal mean period %d: must be positive", s.Period)
	}
	if len(history) < s.Period {
		return fmt.Errorf("predict: %d samples for period %d: %w", len(history), s.Period, ErrShortHistory)
	}
	sums := grow(s.slots, s.Period)
	for i := range sums {
		sums[i] = 0
	}
	if cap(s.counts) < s.Period {
		s.counts = make([]int, s.Period)
	}
	counts := s.counts[:s.Period]
	for i := range counts {
		counts[i] = 0
	}
	for i, v := range history {
		slot := i % s.Period
		sums[slot] += v
		counts[slot]++
	}
	for i := range sums {
		sums[i] /= float64(counts[i])
	}
	s.slots = sums
	s.counts = counts
	// Phase-align: forecasts start right after the history ends.
	s.phase = len(history) % s.Period
	return nil
}

// Forecast implements Model.
func (s *SeasonalMean) Forecast(horizon int) (timeseries.Series, error) {
	return s.ForecastInto(nil, horizon)
}

// ForecastInto implements IntoForecaster.
func (s *SeasonalMean) ForecastInto(dst timeseries.Series, horizon int) (timeseries.Series, error) {
	if s.slots == nil {
		return nil, ErrNotFitted
	}
	out := grow(dst, horizon)
	for t := 0; t < horizon; t++ {
		out[t] = s.slots[(s.phase+t)%s.Period]
	}
	return out, nil
}
