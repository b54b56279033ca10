package core

import (
	"math"

	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Staged-engine metrics: every step either re-runs the full signature
// search (research) or reuses the retained signature set and refits
// only the cheap OLS/temporal weights (refit). The research/refit
// ratio across scrapes is the live cost saving of model reuse; a
// research burst is the drift signal.
var (
	researchTotal = obs.Default().Counter("atm_engine_research_total",
		"Full signature searches run by the staged pipeline (cold start, reuse disabled, or drift).")
	refitTotal = obs.Default().Counter("atm_engine_refit_total",
		"Cheap refits of a retained signature set by the staged pipeline.")
	rollerRolls = obs.Default().Counter("atm_engine_roller_rolls_total",
		"Incremental O(p²) window rolls of the retained spatial model (StepInto fast path).")
	rollerRebuilds = obs.Default().Counter("atm_engine_roller_rebuilds_total",
		"Roller rebuilds after a non-roll window or a numerical breakdown (reference refit taken).")
	modelPhases = obs.Default().CounterVec("atm_engine_model_phase_total",
		"Steps by where their model phase ran: ahead of the actuals (Prepare), inline in the step, or inline after a prepared phase turned out to be for another window (stale).", "outcome")
)

// Per-stage histogram children, hoisted so the hot step path skips the
// label lookup (HistogramVec.With allocates its key on first use).
var (
	searchSeconds      = stageSeconds.With("search")
	temporalFitSeconds = stageSeconds.With("temporal_fit")
	evaluateSeconds    = stageSeconds.With("evaluate")
	resizeSeconds      = stageSeconds.With("resize")

	phaseAhead  = modelPhases.With("ahead")
	phaseInline = modelPhases.With("inline")
	phaseStale  = modelPhases.With("stale")
)

// Model-reuse defaults.
const (
	// DefaultReuseMaxAge bounds how many consecutive windows a
	// signature set may be reused before a full re-search is forced,
	// drift or not.
	DefaultReuseMaxAge = 5
	// DefaultMAPEGrowth is the relative prediction-error growth (vs
	// the error recorded at the last research) that counts as drift.
	DefaultMAPEGrowth = 1.5
)

// ReusePolicy configures cross-window model reuse for rolling and
// streaming runs. The zero value disables reuse: every window re-runs
// the full signature search, which is the batch-identical behavior.
type ReusePolicy struct {
	// Enabled turns model reuse on: after a full signature search the
	// signature set is retained and subsequent windows only refit the
	// dependent OLS models and the per-signature temporal models,
	// until drift (or MaxAge) triggers a re-search.
	Enabled bool
	// MaxAge is the maximum number of consecutive reuse steps before a
	// full re-search is forced; <= 0 selects DefaultReuseMaxAge.
	MaxAge int
	// MAPEGrowth triggers a re-search when a step's mean MAPE exceeds
	// the mean MAPE recorded at the last research by this factor;
	// <= 0 selects DefaultMAPEGrowth.
	MAPEGrowth float64
	// MinR2 triggers a re-search when the mean R² of the refitted
	// dependent models drops below it; 0 disables the check.
	MinR2 float64
}

func (r ReusePolicy) maxAge() int {
	if r.MaxAge <= 0 {
		return DefaultReuseMaxAge
	}
	return r.MaxAge
}

func (r ReusePolicy) mapeGrowth() float64 {
	if r.MAPEGrowth <= 0 {
		return DefaultMAPEGrowth
	}
	return r.MAPEGrowth
}

// Pipeline is the staged ATM engine for one box: signature search →
// temporal fit/predict → dependent OLS reconstruction → per-resource
// resize, with optional model reuse across successive windows. StepInto
// is the only implementation of that sequence: the batch entry points
// (Run, RunBox) step a fresh pipeline once, and the streaming engine
// (the daemon and its trace replays) steps one pipeline per box window
// after window.
//
// A Pipeline retains per-box model state between StepInto calls (the
// signature set, its age, the drift baseline, the incremental roller
// and the buffers every stage writes into); use one Pipeline per box.
// A streaming driver that has the next window's training samples before
// its actuals can run that step's model phase early with Prepare; the
// results are the same either way.
// It is not safe for concurrent use — callers that fan out over boxes
// give each box its own Pipeline.
type Pipeline struct {
	cfg           Config
	samplesPerDay int
	factory       TemporalFactory

	reuseState

	// Incremental step state: the roller maintains the dependent fits'
	// normal equations across rolled windows, and the arena owns the
	// buffers a steady-state step writes its results into.
	roller *spatial.Roller
	arena  stepArena

	held heldPhase
}

// reuseState is the model state retained for reuse across windows:
// what a model phase reads of the windows before it and leaves for the
// ones after.
type reuseState struct {
	sigs          []int   // signature set from the last research; nil before the first
	age           int     // reuse steps since the last research
	baseMAPE      float64 // mean MAPE recorded right after the last research
	haveBase      bool
	driftStreak   int    // consecutive windows breaching the MAPE growth bound
	researchNext  bool   // drift detected; the next step must re-search
	researchCause string // Reason* constant behind researchNext ("" when unset)
	severeDrift   bool   // last observation breached twice the growth bound

	lastDecision Decision // typed record of the most recent model phase's choice
}

// heldPhase is a model phase whose step has not finished yet: its
// output sits in the arena, and this is what it was computed for. It is
// good for one window only — the one with the same box id, the same
// capacities and, sample for sample, the same training demands (which
// the arena still holds) — and only on the pipeline that ran it.
type heldPhase struct {
	set    bool
	id     string
	meta   []float64      // box CPU and RAM capacity, then each VM's
	pred   *BoxPrediction // nil when prediction failed
	err    error          // the phase's failure, reported when the step finishes
	before reuseState     // what the phase started from, put back if it is dropped
}

// matches reports whether the held phase was computed for b's id and
// capacities.
func (h *heldPhase) matches(b *trace.Box) bool {
	if !h.set || h.id != b.ID || len(h.meta) != 2+2*len(b.VMs) ||
		h.meta[0] != b.CPUCapGHz || h.meta[1] != b.RAMCapGB {
		return false
	}
	for v := range b.VMs {
		if h.meta[2+2*v] != b.VMs[v].CPUCapGHz || h.meta[3+2*v] != b.VMs[v].RAMCapGB {
			return false
		}
	}
	return true
}

// drop discards a held model phase nobody finished and undoes what it
// did to the retained model, so the next phase decides and fits exactly
// as if the dropped one had never run. The roller cannot be wound back;
// without it the next reuse step takes the reference refit, as it does
// after any window that did not roll the previous one.
func (p *Pipeline) drop() {
	if !p.held.set {
		return
	}
	p.held.set = false
	p.reuseState = p.held.before
	p.roller = nil
}

// NewPipeline validates the configuration and returns a fresh
// pipeline with no retained model state. samplesPerDay seeds the
// default temporal model's seasonal period.
func NewPipeline(samplesPerDay int, cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	factory := cfg.Temporal
	if factory == nil {
		factory = func() predict.Model { return predict.DefaultMLP(samplesPerDay) }
	}
	return &Pipeline{cfg: cfg, samplesPerDay: samplesPerDay, factory: factory}, nil
}

// SevereDrift reports whether the most recent step's observed error
// breached TWICE the ReusePolicy drift bound — the immediate-research
// signal from observe, exposed so the trust-blending controller can
// floor its forecast weight the moment the predictor falls apart
// rather than waiting for the rolling error to catch up. It is a
// per-step signal: the next observation within bounds clears it.
// Always false with reuse disabled (there is no drift baseline).
func (p *Pipeline) SevereDrift() bool { return p.severeDrift }

// meanDependentR2 averages the training R² of the model's dependent
// fits; a model whose every series is a signature scores 1.
func meanDependentR2(m *spatial.Model) float64 {
	if len(m.Dependents) == 0 {
		return 1
	}
	var sum float64
	for _, fit := range m.Dependents {
		sum += fit.R2
	}
	return sum / float64(len(m.Dependents))
}

// observe feeds a step's evaluated prediction error back into the
// reuse state: the first evaluation after a research becomes the
// drift baseline, and later steps whose error grows past
// MAPEGrowth × baseline count toward a re-search. A single breach is
// debounced — one noisy window on a stationary workload must not
// throw away a good signature set — so a re-search is flagged on two
// consecutive breaches, or immediately on a severe one (twice the
// growth bound).
func (p *Pipeline) observe(pred *BoxPrediction) {
	if !p.cfg.Reuse.Enabled || pred.MAPE == nil {
		return
	}
	p.severeDrift = false
	m, _ := timeseries.MeanStd(pred.MAPE)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return
	}
	if !p.haveBase {
		p.baseMAPE = m
		p.haveBase = true
		return
	}
	bound := p.baseMAPE * p.cfg.Reuse.mapeGrowth()
	switch {
	case m > 2*bound:
		p.researchNext = true
		p.researchCause = ReasonDriftMAPE
		p.severeDrift = true
	case m > bound:
		p.driftStreak++
		if p.driftStreak >= 2 {
			p.researchNext = true
			p.researchCause = ReasonDriftMAPE
		}
	default:
		p.driftStreak = 0
	}
}
