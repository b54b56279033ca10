// Package control is ATM's trust-parameterized robust controller: it
// blends the forecast-driven resize plan with the worst-case-safe
// stingy peak-demand allocation (core.StingySizesInto — the same
// allocation the degraded path ships) under a per-box trust parameter
// λ ∈ [0, 1]. λ=1 follows the forecast plan untouched (consistency:
// when the predictor is good, ATM keeps its full ticket reduction);
// λ=0 is pure reactive peak-demand sizing (robustness: no forecast,
// however poisoned, can talk the box below what it has already
// needed). Intermediate λ takes the convex mix per VM — both endpoint
// plans respect the box capacity budget, so every mix does too.
//
// λ adapts online from observed forecast error with hysteresis: trust
// collapses immediately when the realized error explodes (a single
// catastrophic step, the ReusePolicy severe-drift signal, or a
// degraded fallback all floor it at once) and recovers slowly — at
// most RecoverStep per step, and only while the rolling error
// (score.Board's per-box window) has actually come back down. This is
// the standard consistency/robustness trade of prediction-augmented
// online algorithms ("Online Capacity Scaling Augmented With
// Unreliable Machine Learning Predictions", "Online Virtual Machine
// Allocation with Predictions"): the forecast is advice, not truth,
// and the price of following bad advice is bounded by how fast trust
// decays.
//
// The controller is sharded like the engine and the scoring board:
// Update/Blend take the box's shard, lock only that shard, and reuse
// per-box scratch, so a steady-state engine step through the
// controller stays allocation-free.
package control

import (
	"sync"

	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/trace"
)

// Controller metrics: the fleet-wide trust level and the volume of the
// two intervention paths (plans blended toward the safe allocation,
// trust floored outright). A falling atm_control_lambda is the live
// signal that forecast quality is collapsing somewhere in the fleet —
// before the ticket counters feel it.
var (
	lambdaGauge = obs.Default().Gauge("atm_control_lambda",
		"Exponentially weighted fleet-wide mean of the per-step forecast trust lambda (1 = full forecast, 0 = pure reactive).")
	blendTotal = obs.Default().Counter("atm_control_blend_total",
		"Plans blended toward the stingy safe allocation (steps with lambda < 1).")
	floorTotal = obs.Default().Counter("atm_control_floor_total",
		"Steps whose trust was floored outright (severe drift or degraded fallback).")
)

// Calibrated defaults. MAPEGood/MAPEBad bracket the rolling error of
// the synthetic substrate: a healthy seasonal forecast on the
// stationary trace sits near 0.2–0.35 rolling MAPE, while regime
// changes and poisoned windows push past 1 — so full trust is earned
// a little above the healthy band and zero trust waits for an error
// that makes the forecast genuinely worse than no forecast.
const (
	// DefaultLambda is the adaptive controller's starting trust.
	DefaultLambda = 1.0
	// DefaultMAPEGood is the rolling MAPE at or below which full trust
	// (λ=1) is earned.
	DefaultMAPEGood = 0.40
	// DefaultMAPEBad is the rolling MAPE at or above which trust is
	// zero.
	DefaultMAPEBad = 1.20
	// DefaultRecoverStep bounds how much λ may rise per step (drop is
	// unbounded — hysteresis).
	DefaultRecoverStep = 0.15
	// DefaultMinSamples is how many scored steps the rolling error
	// needs before it steers λ; until then only per-step signals
	// (StepMAPE, severe drift, degraded) move trust.
	DefaultMinSamples = 2
	// lambdaAlpha is the EWMA weight of the newest step in the fleet
	// gauge.
	lambdaAlpha = 0.05
)

// Blend reasons: why the most recent Update chose its λ. Stable
// strings, like core's decision reasons, so they survive JSON
// round-trips through the plan and event log.
const (
	// ReasonFixed: Config.Fixed pins λ (benchmark sweeps, operator
	// override).
	ReasonFixed = "fixed"
	// ReasonWarmup: not enough scored steps to judge the forecast; λ
	// holds at its current value.
	ReasonWarmup = "warmup"
	// ReasonTracking: λ follows the error-interpolated target (held or
	// dropped).
	ReasonTracking = "tracking"
	// ReasonRecovering: the target is above the current λ and trust is
	// climbing back at RecoverStep per step.
	ReasonRecovering = "recovering"
	// ReasonSevereDrift: the ReusePolicy severe-drift signal fired; λ
	// is floored.
	ReasonSevereDrift = "severe_drift"
	// ReasonDegraded: the step shipped the stingy fallback; λ is
	// floored so the steps after recovery stay conservative.
	ReasonDegraded = "degraded"
)

// Config parameterizes the controller.
type Config struct {
	// Enabled turns trust blending on. The zero Config leaves the
	// engine's plan path untouched.
	Enabled bool
	// Fixed pins λ to Lambda (no adaptation) — the benchmark sweep and
	// parity modes.
	Fixed bool
	// Lambda is the pinned trust when Fixed, and the starting trust
	// when adaptive (0 selects DefaultLambda for adaptive runs; a
	// fixed λ=0 is pure reactive and honored as given).
	Lambda float64
	// MAPEGood and MAPEBad bracket the rolling-error interpolation of
	// the λ target: at or below MAPEGood the target is 1, at or above
	// MAPEBad it is 0, linear in between. Zero selects the defaults.
	MAPEGood float64
	MAPEBad  float64
	// RecoverStep bounds the per-step λ increase (drops are immediate).
	// Zero selects DefaultRecoverStep.
	RecoverStep float64
	// LambdaFloor is the trust applied when the severe-drift signal
	// fires or a step degrades (default 0 — pure reactive).
	LambdaFloor float64
	// MinSamples is how many scored steps the rolling error needs
	// before it steers λ. Zero selects DefaultMinSamples.
	MinSamples int
}

// withDefaults fills zero fields with the calibrated defaults.
func (c Config) withDefaults() Config {
	if !c.Fixed && c.Lambda == 0 {
		c.Lambda = DefaultLambda
	}
	if c.MAPEGood == 0 {
		c.MAPEGood = DefaultMAPEGood
	}
	if c.MAPEBad <= c.MAPEGood {
		c.MAPEBad = c.MAPEGood + (DefaultMAPEBad - DefaultMAPEGood)
	}
	if c.RecoverStep == 0 {
		c.RecoverStep = DefaultRecoverStep
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	c.Lambda = clamp01(c.Lambda)
	c.LambdaFloor = clamp01(c.LambdaFloor)
	return c
}

// Observation is what one engine step tells the controller: the box's
// rolling forecast error so far (score.Board, excluding this step),
// this step's own realized error, and the hard failure signals.
type Observation struct {
	// RollingMAPE is the box's rolling mean realized MAPE over its
	// last RollingN scored steps, as reported by score.Board.MAPE
	// before this step was observed.
	RollingMAPE float64
	RollingN    int
	// StepMAPE is this step's realized mean MAPE; HaveStep is false
	// for degraded steps, which carry no forecast to score.
	StepMAPE float64
	HaveStep bool
	// Degraded marks a stingy-fallback step.
	Degraded bool
	// SevereDrift is core.Pipeline.SevereDrift after this step: the
	// realized error breached twice the ReusePolicy drift bound.
	SevereDrift bool
}

// Decision is the controller's choice for the step: the trust to blend
// with and why.
type Decision struct {
	// Lambda is the trust weight of the forecast plan.
	Lambda float64 `json:"lambda"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
}

// boxState is the per-box trust state plus the blend scratch buffers.
type boxState struct {
	lambda   float64
	safe     []float64 // stingy scratch, reused across resources and steps
	haveSafe bool
}

type ctlShard struct {
	mu    sync.Mutex
	boxes map[string]*boxState
}

// Controller adapts and applies per-box forecast trust. Safe for
// concurrent use across shards; calls for one box must come from one
// goroutine at a time (the engine's serialized shard pass).
type Controller struct {
	cfg    Config
	shards []ctlShard

	fleetMu   sync.Mutex
	fleetEWMA float64
	fleetInit bool
}

// New returns a controller with the given shard count (< 1 selects 1),
// mirroring the engine's shard layout. Zero config fields select the
// calibrated defaults.
func New(shards int, cfg Config) *Controller {
	if shards < 1 {
		shards = 1
	}
	c := &Controller{cfg: cfg.withDefaults(), shards: make([]ctlShard, shards)}
	for i := range c.shards {
		c.shards[i].boxes = make(map[string]*boxState)
	}
	return c
}

// shard maps an engine shard index onto the controller's layout.
func (c *Controller) shard(i int) *ctlShard {
	return &c.shards[((i%len(c.shards))+len(c.shards))%len(c.shards)]
}

// state fetches or creates the box's trust state. Callers hold sh.mu.
func (c *Controller) state(sh *ctlShard, id string) *boxState {
	st := sh.boxes[id]
	if st == nil {
		st = &boxState{lambda: c.cfg.Lambda}
		sh.boxes[id] = st
	}
	return st
}

// Update folds one step's observation into the box's trust and returns
// the λ to blend that step's plan with. Drops are immediate; recovery
// is bounded by RecoverStep per step and only follows the rolling
// error back up (hysteresis). Severe drift and degraded steps floor
// trust at LambdaFloor regardless of the rolling error.
func (c *Controller) Update(id string, shard int, o Observation) Decision {
	if c.cfg.Fixed {
		dec := Decision{Lambda: c.cfg.Lambda, Reason: ReasonFixed}
		c.publishLambda(dec.Lambda)
		return dec
	}
	sh := c.shard(shard)
	sh.mu.Lock()
	st := c.state(sh, id)

	target, reason := c.target(st.lambda, o)
	switch {
	case target < st.lambda:
		st.lambda = target // lose trust at once
	case target > st.lambda:
		st.lambda += c.cfg.RecoverStep // regain it slowly
		if st.lambda > target {
			st.lambda = target
		}
		reason = ReasonRecovering
	}
	dec := Decision{Lambda: st.lambda, Reason: reason}
	sh.mu.Unlock()

	if reason == ReasonSevereDrift || reason == ReasonDegraded {
		floorTotal.Inc()
	}
	c.publishLambda(dec.Lambda)
	return dec
}

// target resolves the λ the observation argues for, before hysteresis.
func (c *Controller) target(cur float64, o Observation) (float64, string) {
	switch {
	case o.Degraded:
		return c.cfg.LambdaFloor, ReasonDegraded
	case o.SevereDrift:
		return c.cfg.LambdaFloor, ReasonSevereDrift
	}
	// Judge the forecast by the worst of this step's own error and the
	// rolling window: a single catastrophic step drags trust down now,
	// while recovery has to wait for the whole window to calm down.
	worst := -1.0
	if o.HaveStep {
		worst = o.StepMAPE
	}
	if o.RollingN >= c.cfg.MinSamples && o.RollingMAPE > worst {
		worst = o.RollingMAPE
	}
	if worst < 0 {
		return cur, ReasonWarmup
	}
	t := (c.cfg.MAPEBad - worst) / (c.cfg.MAPEBad - c.cfg.MAPEGood)
	return clamp01(t), ReasonTracking
}

// publishLambda folds a step's λ into the fleet EWMA gauge.
func (c *Controller) publishLambda(l float64) {
	c.fleetMu.Lock()
	if !c.fleetInit {
		c.fleetEWMA = l
		c.fleetInit = true
	} else {
		c.fleetEWMA += lambdaAlpha * (l - c.fleetEWMA)
	}
	lambdaGauge.Set(c.fleetEWMA)
	c.fleetMu.Unlock()
}

// Blend mixes the step's forecast plan toward the stingy safe
// allocation in place: size'[v] = λ·size[v] + (1-λ)·stingy[v] for both
// resources, with TicketsAfter recounted against the realized demand
// of the evaluation horizon under the blended sizes (TicketsBefore is
// untouched — it evaluates the original capacities). wb must be the
// same windowed box the step ran on. λ ≥ 1 and degraded results are
// exact no-ops (the λ=1 path stays bit-identical to an unblended
// engine); λ ≤ 0 ships pure stingy. Returns whether the plan changed.
// Allocation-free after the box's first blend.
func (c *Controller) Blend(id string, shard int, wb *trace.Box, res *core.BoxResult, ccfg core.Config, lambda float64) bool {
	if res == nil || res.Degraded || lambda >= 1 {
		return false
	}
	if lambda < 0 {
		lambda = 0
	}
	sh := c.shard(shard)
	sh.mu.Lock()
	st := c.state(sh, id)
	blendRun(wb, res.CPU, trace.CPU, ccfg, lambda, &st.safe)
	blendRun(wb, res.RAM, trace.RAM, ccfg, lambda, &st.safe)
	sh.mu.Unlock()
	blendTotal.Inc()
	return true
}

// blendRun blends one resource's run and recounts its horizon tickets.
func blendRun(b *trace.Box, run *core.BoxRun, r trace.Resource, cfg core.Config, lambda float64, scratch *[]float64) {
	if run == nil {
		return
	}
	*scratch = core.StingySizesInto(b, r, cfg, *scratch)
	safe := *scratch
	for v := range run.Sizes {
		if v < len(safe) {
			run.Sizes[v] = lambda*run.Sizes[v] + (1-lambda)*safe[v]
		}
	}
	// Recount TicketsAfter under the blended sizes, mirroring
	// ticket.Count over the evaluation horizon (demand computed inline
	// as usage×capacity/100 — VM.Demand would allocate; NaN samples
	// never ticket, as in ticket.Count).
	run.TicketsAfter = 0
	end := cfg.TrainWindows + cfg.Horizon
	for v := range b.VMs {
		if v >= len(run.Sizes) {
			break
		}
		usage := b.VMs[v].Usage(r)
		scale := b.VMs[v].Capacity(r) / 100
		hi := end
		if hi > len(usage) {
			hi = len(usage)
		}
		limit := cfg.Threshold * run.Sizes[v]
		if run.Sizes[v] <= 0 {
			limit = 0
		}
		for j := cfg.TrainWindows; j < hi; j++ {
			if usage[j]*scale > limit {
				run.TicketsAfter++
			}
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
