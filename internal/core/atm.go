// Package core implements the ATM (Active Ticket Managing) pipeline —
// the paper's end-to-end system (Section V). Per box and per resizing
// window it:
//
//  1. runs the two-step signature search on the training history of
//     all M×N demand series (spatial models, Section III);
//  2. predicts every signature series with an expensive temporal model
//     and every dependent series with its cheap linear spatial model;
//  3. solves the per-resource MCKP resizing problem on the predicted
//     demands (Section IV) to set each VM's capacity for the next
//     resizing window;
//  4. evaluates prediction error and ticket counts against the actual
//     demands.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"atm/internal/obs"
	"atm/internal/parallel"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/ticket"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Pipeline metrics: per-stage wall-clock latency, the box throughput
// counter, and the before/after ticket totals the whole system exists
// to move. tickets_after / tickets_before across scrapes is the live
// ticket-reduction ratio of the paper's evaluation.
var (
	stageSeconds = obs.Default().HistogramVec("atm_stage_seconds",
		"Wall-clock latency of ATM pipeline stages, per box.", nil, "stage")
	boxesRun = obs.Default().Counter("atm_boxes_total",
		"Boxes processed by the full predict+resize pipeline.")
	ticketsBefore = obs.Default().Counter("atm_tickets_before_total",
		"Tickets over evaluation horizons under the original capacities.")
	ticketsAfter = obs.Default().Counter("atm_tickets_after_total",
		"Tickets over evaluation horizons under the resized capacities.")
)

// TemporalFactory builds a fresh temporal model for one signature
// series. Each signature gets its own model instance (models are
// stateful).
type TemporalFactory func() predict.Model

// Config parameterizes an ATM run.
type Config struct {
	// Spatial configures the signature search (clustering method,
	// thresholds).
	Spatial spatial.Config
	// Temporal builds the per-signature prediction model. Nil selects
	// the paper's neural network (predict.DefaultMLP) with the
	// trace's samples-per-day as the seasonal period.
	Temporal TemporalFactory
	// TrainWindows is the history length used to fit spatial and
	// temporal models (paper: 5 days = 480 windows).
	TrainWindows int
	// Horizon is the prediction and resizing window in ticketing
	// windows (paper: 1 day = 96 windows).
	Horizon int
	// Threshold is the usage-ticket threshold α (paper evaluation:
	// 0.6).
	Threshold float64
	// Epsilon is the resizing discretization factor (paper: 5).
	Epsilon float64
	// UseLowerBounds, when true, floors each VM's new capacity at its
	// peak demand over the training history, preventing spill-over of
	// unfinished demand (paper Section IV-A1).
	UseLowerBounds bool
	// Workers bounds Run's box fan-out; <= 0 uses one worker per core.
	// One box's fits and solves always run on its own goroutine.
	Workers int
	// Degraded, when true, keeps the run alive through per-box model
	// failures: a box whose signature search, temporal fit or resize
	// fails falls back to the stingy peak-demand allocation instead of
	// aborting the fleet. Degraded boxes are flagged on the BoxResult
	// and their causes aggregated into the run's joined error.
	// Config errors (ErrBadConfig) never degrade — they are operator
	// input mistakes, not model failures.
	Degraded bool
	// Reuse configures cross-window model reuse for rolling and
	// streaming runs (see ReusePolicy). The zero value disables reuse,
	// keeping every window's full signature search — the batch-
	// identical behavior. One-shot runs (Run/RunBox) ignore it.
	Reuse ReusePolicy
}

// Errors returned by the pipeline.
var (
	// ErrShortTrace indicates the box's series cannot cover
	// TrainWindows+Horizon samples.
	ErrShortTrace = errors.New("core: trace shorter than train+horizon")
	// ErrBadConfig indicates invalid configuration.
	ErrBadConfig = errors.New("core: invalid config")
)

func (c Config) validate() error {
	if c.TrainWindows <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("train %d / horizon %d: %w", c.TrainWindows, c.Horizon, ErrBadConfig)
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("threshold %v: %w", c.Threshold, ErrBadConfig)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("epsilon %v: %w", c.Epsilon, ErrBadConfig)
	}
	if c.Reuse.MinR2 < 0 || c.Reuse.MinR2 > 1 {
		return fmt.Errorf("reuse min R² %v: %w", c.Reuse.MinR2, ErrBadConfig)
	}
	return nil
}

// BoxPrediction is the spatial-temporal forecast for one box.
type BoxPrediction struct {
	// Model is the fitted spatial model (signature set and dependent
	// fits).
	Model *spatial.Model
	// Demand holds the predicted demand series for every box series
	// (trace.SeriesIndex order), each Horizon samples long.
	Demand []timeseries.Series
	// MAPE is the mean absolute percentage error per series against
	// the actual horizon, set by Evaluate.
	MAPE []float64
	// PeakMAPE is the error restricted to actual demand above the
	// ticket threshold, set by Evaluate.
	PeakMAPE []float64
}

const maxFloat = 1e300

// Evaluate fills the prediction-error fields against the actual demand
// series (full-length, TrainWindows+Horizon or longer). peakOf[i] is
// the demand level above which a sample counts as a peak for series i
// (the paper uses the ticket threshold times the allocated capacity).
func (p *BoxPrediction) Evaluate(demands []timeseries.Series, cfg Config, peakOf []float64) error {
	if len(demands) != len(p.Demand) {
		return fmt.Errorf("core: evaluate with %d series, predicted %d: %w",
			len(demands), len(p.Demand), timeseries.ErrLengthMismatch)
	}
	// Buffers are reused when the pipeline re-evaluates its retained
	// prediction step after step; a fresh prediction allocates.
	p.MAPE = growFloats(p.MAPE, len(demands))
	p.PeakMAPE = growFloats(p.PeakMAPE, len(demands))
	for i, d := range demands {
		actual := d.Slice(cfg.TrainWindows, cfg.TrainWindows+cfg.Horizon)
		mape, err := timeseries.MAPE(actual, p.Demand[i])
		if err != nil {
			return err
		}
		p.MAPE[i] = mape
		peak := 0.0
		if peakOf != nil {
			peak = peakOf[i]
		}
		pm, err := timeseries.PeakMAPE(actual, p.Demand[i], peak)
		if err != nil {
			return err
		}
		p.PeakMAPE[i] = pm
	}
	return nil
}

// BoxRun is the outcome of the full ATM pipeline on one box for one
// resource.
type BoxRun struct {
	// Resource is the resized resource.
	Resource trace.Resource
	// Sizes holds the new per-VM capacities.
	Sizes []float64
	// TicketsBefore counts tickets over the evaluation horizon under
	// the original allocated capacities.
	TicketsBefore int
	// TicketsAfter counts tickets over the same horizon under Sizes.
	TicketsAfter int
}

// Reduction returns the relative ticket reduction of the run.
func (r *BoxRun) Reduction() float64 { return ticket.Reduction(r.TicketsBefore, r.TicketsAfter) }

// ResizeBoxContext solves the resizing problem for one resource of a
// box, using predicted demands to choose sizes and actual demands to
// evaluate them. Under an obs.Tracer it emits a "core.resize" span
// carrying the resource. It runs the pipeline's resize stage and ticket
// count on an arena of its own, which the returned run then owns.
func ResizeBoxContext(ctx context.Context, b *trace.Box, pred *BoxPrediction, r trace.Resource, cfg Config) (*BoxRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var a stepArena
	a.demandsInto(b, 0)
	if err := a.solveInto(ctx, cfg, b, pred, r); err != nil {
		return nil, err
	}
	return a.countTickets(cfg, b, r), nil
}

// BoxResult bundles everything ATM produced for one box.
type BoxResult struct {
	// Box identifies the input.
	Box *trace.Box
	// Prediction is the spatial-temporal forecast with errors filled.
	Prediction *BoxPrediction
	// CPU and RAM are the per-resource resizing outcomes.
	CPU *BoxRun
	RAM *BoxRun
	// Degraded reports that the model pipeline failed for this box and
	// CPU/RAM carry the stingy peak-demand fallback instead of the
	// MCKP solution. Prediction is nil for degraded boxes.
	Degraded bool
	// FallbackErr is the pipeline failure that forced the fallback.
	FallbackErr error
}

// MeanMAPE returns the box-level mean prediction error across all
// series, or NaN for a degraded box that never produced a forecast.
func (r *BoxResult) MeanMAPE() float64 {
	if r.Prediction == nil {
		return math.NaN()
	}
	m, _ := timeseries.MeanStd(r.Prediction.MAPE)
	return m
}

// MeanPeakMAPE returns the box-level mean peak prediction error across
// series that had peaks, or NaN for a degraded box.
func (r *BoxResult) MeanPeakMAPE() float64 {
	if r.Prediction == nil {
		return math.NaN()
	}
	var vals []float64
	for _, v := range r.Prediction.PeakMAPE {
		if v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	m, _ := timeseries.MeanStd(vals)
	return m
}

// Clone returns a deep copy of everything the pipeline produced.
// StepInto's results live in the pipeline's arena, so whoever keeps
// one past the next step keeps a clone: its own prediction, model and
// size slices. Box is the caller's input and stays shared.
func (r *BoxResult) Clone() *BoxResult {
	out := *r
	if r.Prediction != nil {
		pred := *r.Prediction
		pred.Model = pred.Model.Clone()
		pred.Demand = make([]timeseries.Series, len(r.Prediction.Demand))
		for i, d := range r.Prediction.Demand {
			pred.Demand[i] = d.Clone()
		}
		pred.MAPE = append([]float64(nil), pred.MAPE...)
		pred.PeakMAPE = append([]float64(nil), pred.PeakMAPE...)
		out.Prediction = &pred
	}
	out.CPU, out.RAM = r.CPU.clone(), r.RAM.clone()
	return &out
}

func (r *BoxRun) clone() *BoxRun {
	out := *r
	out.Sizes = append([]float64(nil), r.Sizes...)
	return &out
}

// RunBox executes the full ATM pipeline (predict + resize CPU and RAM)
// on one box.
func RunBox(b *trace.Box, samplesPerDay int, cfg Config) (*BoxResult, error) {
	return RunBoxContext(context.Background(), b, samplesPerDay, cfg)
}

// RunBoxContext is RunBox with tracing: under an obs.Tracer the whole
// box run nests beneath a "core.box" span — signature search, temporal
// fits, reconstruction, evaluation and both resource resizes — so a
// single exported trace shows where one box's latency went. A fresh
// pipeline with no retained model state runs exactly one step; the
// result is cloned out so the pipeline's arena (a copy of the whole
// window, the fitted temporal models) does not live as long as a
// fleet's worth of results.
func RunBoxContext(ctx context.Context, b *trace.Box, samplesPerDay int, cfg Config) (*BoxResult, error) {
	p, err := NewPipeline(samplesPerDay, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.ID, err)
	}
	res, err := p.StepInto(ctx, b)
	if res == nil {
		return nil, err
	}
	return res.Clone(), err
}

// Run executes ATM over many boxes concurrently on the shared worker
// pool (boxes are independent, mirroring per-hypervisor deployment).
// Per-box failures abort the run with the first error in box order;
// with Config.Degraded set, failed boxes fall back to the stingy
// allocation instead and the causes come back joined (see RunContext).
func Run(boxes []*trace.Box, samplesPerDay int, cfg Config) ([]*BoxResult, error) {
	return RunContext(context.Background(), boxes, samplesPerDay, cfg)
}

// RunContext is Run with tracing: one "core.run" root span over the
// per-box fan-out. Box spans reference it as their parent even though
// they run concurrently on the pool.
//
// In degraded mode the returned slice always has one entry per box
// (nil only for boxes that failed un-degradably, e.g. bad config) and
// the error is the errors.Join of every per-box failure — callers get
// the whole fleet's results plus a full account of what went wrong.
func RunContext(ctx context.Context, boxes []*trace.Box, samplesPerDay int, cfg Config) ([]*BoxResult, error) {
	ctx, span := obs.StartSpan(ctx, "core.run")
	defer span.End()
	span.SetAttr("boxes", len(boxes))
	if !cfg.Degraded {
		return parallel.Map(len(boxes), func(i int) (*BoxResult, error) {
			return RunBoxContext(ctx, boxes[i], samplesPerDay, cfg)
		}, parallel.WithWorkers(cfg.Workers))
	}
	results := make([]*BoxResult, len(boxes))
	errs := make([]error, len(boxes))
	// The worker fn never errors, so every box runs to completion even
	// when siblings fail — the whole point of degraded mode.
	_ = parallel.ForEach(len(boxes), func(i int) error {
		results[i], errs[i] = RunBoxContext(ctx, boxes[i], samplesPerDay, cfg)
		return nil
	}, parallel.WithWorkers(cfg.Workers))
	return results, errors.Join(errs...)
}
