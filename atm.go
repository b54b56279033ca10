// Package atm is the public API of the Active Ticket Managing system,
// a reproduction of "Managing Data Center Tickets: Prediction and
// Active Sizing" (Xue, Birke, Chen, Smirni — DSN 2016).
//
// ATM reduces data-center usage tickets — alerts issued when a VM's
// CPU or RAM utilization exceeds a threshold of its allocated capacity
// — by (1) predicting every co-located VM's demand from a small set of
// signature series found via time-series clustering and stepwise
// regression, and (2) proactively resizing the VMs' capacity limits by
// solving a multi-choice knapsack problem on the predicted demands.
//
// Quick start:
//
//	tr := atm.GenerateTrace(atm.TraceConfig{Boxes: 10, Days: 7})
//	sys := atm.New(tr.SamplesPerDay,
//		atm.WithMethod(atm.MethodCBC),
//		atm.WithTrainDays(5),
//	)
//	results, err := sys.Run(tr.GapFree())
//	// results[i].CPU.Reduction() is box i's CPU ticket reduction.
//
// The packages under internal/ hold the substrates (clustering,
// regression, temporal models, the MCKP solver, the synthetic trace
// generator and a MediaWiki-style testbed simulator); this package
// wires them into the paper's end-to-end pipeline.
package atm

import (
	"context"
	"errors"
	"fmt"

	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Re-exported types: the facade accepts and returns these so callers
// never import internal packages directly.
type (
	// Series is a fixed-interval time series of float64 samples.
	Series = timeseries.Series
	// Trace is a data-center usage trace (boxes of co-located VMs).
	Trace = trace.Trace
	// Box is one physical machine and its VMs.
	Box = trace.Box
	// VM is one virtual machine's configuration and usage series.
	VM = trace.VM
	// Resource selects CPU or RAM.
	Resource = trace.Resource
	// TraceConfig parameterizes the synthetic trace generator.
	TraceConfig = trace.GenConfig
	// Result bundles ATM's outcome for one box: prediction model,
	// forecasts, per-resource resizing runs.
	Result = core.BoxResult
	// Method selects the signature-search clustering technique.
	Method = spatial.Method
	// TemporalModel is the pluggable per-signature prediction model.
	TemporalModel = predict.Model
)

// Resource and method constants.
const (
	CPU = trace.CPU
	RAM = trace.RAM
	// MethodDTW clusters signature candidates by dynamic time warping.
	MethodDTW = spatial.MethodDTW
	// MethodCBC clusters by the paper's correlation-based scheme.
	MethodCBC = spatial.MethodCBC
	// MethodFeatures clusters by k-means over extracted series
	// features — cheaper than DTW, independent of series length.
	MethodFeatures = spatial.MethodFeatures
)

// GenerateTrace produces a deterministic synthetic data-center trace
// calibrated to the paper's published workload characterization. Zero
// config fields select defaults (100 boxes, 7 days, 96 windows/day).
func GenerateTrace(cfg TraceConfig) *Trace { return trace.Generate(cfg) }

// System is a configured ATM instance.
type System struct {
	cfg core.Config
	spd int
}

// Option customizes a System.
type Option func(*System)

// WithMethod selects the clustering technique for the signature search
// (default MethodCBC, the paper's most accurate variant).
func WithMethod(m Method) Option {
	return func(s *System) { s.cfg.Spatial.Method = m }
}

// WithTemporal replaces the temporal model used for signature series
// (default: the built-in MLP neural network, as in the paper). The
// factory is invoked once per signature series. Run calls it from one
// goroutine per box, so a factory shared across boxes must be safe for
// concurrent use; RunBox and RunRollingBox call it sequentially.
func WithTemporal(factory func() TemporalModel) Option {
	return func(s *System) { s.cfg.Temporal = core.TemporalFactory(factory) }
}

// WithSeasonalNaive selects the cheap seasonal-naive temporal model —
// useful for large sweeps where MLP training time dominates.
func WithSeasonalNaive() Option {
	return func(s *System) {
		period := s.spd
		s.cfg.Temporal = func() predict.Model { return &predict.SeasonalNaive{Period: period} }
	}
}

// WithTrainDays sets the training history length in days (paper: 5).
func WithTrainDays(days int) Option {
	return func(s *System) { s.cfg.TrainWindows = days * s.spd }
}

// WithHorizonDays sets the prediction/resizing window in days
// (paper: 1).
func WithHorizonDays(days int) Option {
	return func(s *System) { s.cfg.Horizon = days * s.spd }
}

// WithThreshold sets the usage-ticket threshold α (default 0.6).
func WithThreshold(alpha float64) Option {
	return func(s *System) { s.cfg.Threshold = alpha }
}

// WithEpsilon sets the resizing discretization factor ε (default 5,
// the paper's evaluation setting; 0 disables discretization).
func WithEpsilon(eps float64) Option {
	return func(s *System) { s.cfg.Epsilon = eps }
}

// WithLowerBounds floors each VM's new capacity at its historical peak
// demand, preventing spill-over of unfinished work.
func WithLowerBounds() Option {
	return func(s *System) { s.cfg.UseLowerBounds = true }
}

// WithModelReuse enables cross-window model reuse for rolling runs
// (RunRollingBox): the signature set from the last full search is
// retained and subsequent windows only refit the cheap dependent-OLS
// and temporal weights, re-searching on drift or age (core.ReusePolicy
// defaults). Batch runs are unaffected — each RunBox call is a fresh
// pipeline.
func WithModelReuse() Option {
	return func(s *System) { s.cfg.Reuse = core.ReusePolicy{Enabled: true} }
}

// New returns an ATM system for traces sampled samplesPerDay times per
// day (96 in the paper), configured with the paper's evaluation
// defaults: CBC clustering, MLP temporal model, 5 training days, 1-day
// horizon, 60% threshold, ε=5.
func New(samplesPerDay int, opts ...Option) *System {
	s := &System{
		spd: samplesPerDay,
		cfg: core.Config{
			Spatial:      spatial.Config{Method: spatial.MethodCBC, Period: samplesPerDay},
			TrainWindows: 5 * samplesPerDay,
			Horizon:      samplesPerDay,
			Threshold:    0.6,
			Epsilon:      5,
		},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Config exposes the resolved low-level configuration (useful for the
// experiment harness and for tests).
func (s *System) Config() core.Config { return s.cfg }

// RunBox executes the full ATM pipeline — signature search, spatial-
// temporal prediction, CPU and RAM resizing, evaluation — on one box.
func (s *System) RunBox(b *Box) (*Result, error) {
	return core.RunBox(b, s.spd, s.cfg)
}

// Run executes RunBox over many boxes concurrently.
func (s *System) Run(boxes []*Box) ([]*Result, error) {
	return core.Run(boxes, s.spd, s.cfg)
}

// Summary aggregates per-box results into data-center-level means —
// the numbers the paper's evaluation reports.
type Summary struct {
	// Boxes is the number of aggregated results.
	Boxes int
	// MeanMAPE is the average per-box prediction error.
	MeanMAPE float64
	// MeanPeakMAPE is the average per-box peak (above-threshold)
	// prediction error.
	MeanPeakMAPE float64
	// SignatureRatio is the average fraction of series kept as
	// signatures.
	SignatureRatio float64
	// CPUReduction and RAMReduction are the average relative ticket
	// reductions.
	CPUReduction float64
	RAMReduction float64
}

// Summarize aggregates results; nil entries are skipped.
func Summarize(results []*Result) Summary {
	var s Summary
	var mape, peak, ratio, cpuRed, ramRed float64
	var nCPU, nRAM int
	for _, r := range results {
		if r == nil {
			continue
		}
		s.Boxes++
		mape += r.MeanMAPE()
		peak += r.MeanPeakMAPE()
		ratio += r.Prediction.Model.Ratio()
		if r.CPU != nil && r.CPU.TicketsBefore > 0 {
			cpuRed += r.CPU.Reduction()
			nCPU++
		}
		if r.RAM != nil && r.RAM.TicketsBefore > 0 {
			ramRed += r.RAM.Reduction()
			nRAM++
		}
	}
	if s.Boxes == 0 {
		return s
	}
	n := float64(s.Boxes)
	s.MeanMAPE = mape / n
	s.MeanPeakMAPE = peak / n
	s.SignatureRatio = ratio / n
	if nCPU > 0 {
		s.CPUReduction = cpuRed / float64(nCPU)
	}
	if nRAM > 0 {
		s.RAMReduction = ramRed / float64(nRAM)
	}
	return s
}

// WithAutoModel selects the best temporal model per signature series by
// rolling-origin validation over the library's whole model family
// (seasonal baselines, AR, Holt-Winters, MLP).
func WithAutoModel() Option {
	return func(s *System) {
		period := s.spd
		// Validate on two half-day folds: one full day of held-out data
		// keeps even 3-day training histories usable.
		horizon := period / 2
		if horizon < 1 {
			horizon = 1
		}
		s.cfg.Temporal = func() predict.Model {
			return &predict.Auto{
				Candidates: predict.DefaultCandidates(period),
				Folds:      2,
				Horizon:    horizon,
			}
		}
	}
}

// RollingResult is the outcome of one resizing window in an online
// run.
type RollingResult struct {
	// Step is the zero-based resizing-window index.
	Step int
	// Result is the full per-box outcome for this window (prediction,
	// CPU and RAM runs), evaluated against that window's actuals. Its
	// Box is the window the step ran on.
	Result *Result
	// Research reports whether this step ran a full signature search
	// (true) or reused the retained signature set with a cheap refit
	// (false). Without WithModelReuse it is true on every step.
	Research bool
}

// RunRollingBox drives ATM online over the box's whole trace: after
// the training prefix, every successive horizon window is predicted
// and resized from the most recent history — the paper's future-work
// direction of online dynamic workload management. The number of steps
// is floor((samples - train) / horizon).
//
// The trace is replayed through the streaming engine the daemon runs,
// one persistent pipeline per box, so WithModelReuse retains the
// signature set across windows and refits only the cheap weights until
// drift (or age) forces a re-search. A step that produces no result
// aborts the run; a degraded step keeps its flagged stingy-fallback
// result and its cause comes back in the joined error. A trace with
// gap (NaN) samples is rejected before the first step.
func (s *System) RunRollingBox(b *Box) ([]RollingResult, error) {
	var out []RollingResult
	var errs []error
	cfg := engine.Config{Core: s.cfg, SamplesPerDay: s.spd}
	err := engine.Replay(context.Background(), b, cfg, func(p engine.Plan, res *Result, err error) error {
		if err != nil {
			err = fmt.Errorf("atm: rolling step %d: %w", p.Step, err)
		}
		if res == nil {
			return err
		}
		errs = append(errs, err)
		kept := res.Clone()
		box := *res.Box
		box.VMs = append([]VM(nil), res.Box.VMs...)
		kept.Box = &box
		out = append(out, RollingResult{Step: p.Step, Result: kept, Research: p.Research})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, errors.Join(errs...)
}

// RollingSummary aggregates an online run.
type RollingSummary struct {
	// Steps is the number of resizing windows executed.
	Steps int
	// Researches counts the steps that ran a full signature search;
	// Steps - Researches steps reused the retained model.
	Researches int
	// MeanMAPE is the average prediction error across steps.
	MeanMAPE float64
	// CPUReduction and RAMReduction aggregate tickets across all steps
	// (total before vs total after), which is robust to zero-ticket
	// windows.
	CPUReduction float64
	RAMReduction float64
	// TicketsBefore and TicketsAfter are the aggregate CPU+RAM counts.
	TicketsBefore, TicketsAfter int
}

// SummarizeRolling aggregates per-step rolling results.
func SummarizeRolling(results []RollingResult) RollingSummary {
	s := RollingSummary{Steps: len(results)}
	if s.Steps == 0 {
		return s
	}
	var mape float64
	var cpuBefore, cpuAfter, ramBefore, ramAfter int
	for _, r := range results {
		if r.Research {
			s.Researches++
		}
		mape += r.Result.MeanMAPE()
		cpuBefore += r.Result.CPU.TicketsBefore
		cpuAfter += r.Result.CPU.TicketsAfter
		ramBefore += r.Result.RAM.TicketsBefore
		ramAfter += r.Result.RAM.TicketsAfter
	}
	s.MeanMAPE = mape / float64(s.Steps)
	if cpuBefore > 0 {
		s.CPUReduction = float64(cpuBefore-cpuAfter) / float64(cpuBefore)
	}
	if ramBefore > 0 {
		s.RAMReduction = float64(ramBefore-ramAfter) / float64(ramBefore)
	}
	s.TicketsBefore = cpuBefore + ramBefore
	s.TicketsAfter = cpuAfter + ramAfter
	return s
}
