package control

import (
	"context"
	"math"

	"atm/internal/core"
	"atm/internal/score"
	"atm/internal/trace"
)

// RollingSummary aggregates an online run through the controller. The
// ticket and MAPE fields mirror core.RollingSummary but evaluate the
// PUBLISHED (blended) plans — with the controller disabled or pinned
// at λ=1 they match core.RunRolling on the same trace bit for bit.
type RollingSummary struct {
	// Steps is the number of resizing windows executed; Researches
	// counts the ones that ran a full signature search.
	Steps      int `json:"steps"`
	Researches int `json:"researches"`
	// DegradedSteps counts stingy-fallback steps (no forecast shipped).
	DegradedSteps int `json:"degraded_steps,omitempty"`
	// BlendedSteps counts steps whose plan was actually mixed toward
	// the safe allocation (λ < 1 on a non-degraded step); FlooredSteps
	// counts the subset where trust was floored outright (severe drift
	// or degraded fallback).
	BlendedSteps int `json:"blended_steps"`
	FlooredSteps int `json:"floored_steps"`
	// MeanMAPE averages the realized forecast error over scored
	// (non-degraded) steps.
	MeanMAPE float64 `json:"mean_mape"`
	// MeanLambda averages the controller's per-step trust (1.0 when
	// the controller is disabled).
	MeanLambda float64 `json:"mean_lambda"`
	// TicketsBefore and TicketsAfter are the aggregate CPU+RAM ticket
	// counts over all evaluation horizons, under the published sizes.
	TicketsBefore int `json:"tickets_before"`
	TicketsAfter  int `json:"tickets_after"`
}

// RunRolling drives one box online through the trust-parameterized
// controller, mirroring the engine's per-step wiring exactly: pipeline
// step → controller Update (fed the scoring board's rolling error from
// BEFORE this step, this step's realized error, and the pipeline's
// severe-drift signal) → Blend → board.Observe on the published plan.
// It is the offline harness behind the robustness benchmark — the same
// decision sequence the live engine would make on the trace, without
// standing up stores and actuators.
//
// With cfg.Enabled false the controller is bypassed entirely and the
// summary matches core.RunRolling + SummarizeRolling on the same trace
// (MeanMAPE averaged over scored steps rather than poisoned to NaN by
// degraded ones).
func RunRolling(b *trace.Box, samplesPerDay int, ccfg core.Config, cfg Config) (RollingSummary, error) {
	p, err := core.NewPipeline(samplesPerDay, ccfg)
	if err != nil {
		return RollingSummary{}, err
	}
	board := score.NewBoard(1, ccfg)
	var ctl *Controller
	if cfg.Enabled {
		ctl = New(1, cfg)
	}

	var s RollingSummary
	var mapeSum, lambdaSum float64
	scored := 0
	err = p.Roll(context.TODO(), b, func(_ int, wb *trace.Box, res *core.BoxResult, err error) error {
		if res == nil {
			return err
		}
		lambda := 1.0
		if ctl != nil {
			// The rolling error the engine would see at this point: the
			// board has scored every step before this one.
			o := Observation{
				Degraded:    res.Degraded,
				SevereDrift: p.SevereDrift(),
			}
			o.RollingMAPE, o.RollingN, _ = board.MAPE(b.ID)
			if m := res.MeanMAPE(); !math.IsNaN(m) && !math.IsInf(m, 0) {
				o.StepMAPE, o.HaveStep = m, true
			}
			dec := ctl.Update(b.ID, 0, o)
			lambda = dec.Lambda
			if dec.Reason == ReasonSevereDrift || dec.Reason == ReasonDegraded {
				s.FlooredSteps++
			}
			if ctl.Blend(b.ID, 0, wb, res, ccfg, lambda) {
				s.BlendedSteps++
			}
		}
		board.Observe(b.ID, 0, res)

		s.Steps++
		if p.LastResearch() {
			s.Researches++
		}
		lambdaSum += lambda
		if res.Degraded {
			s.DegradedSteps++
		} else if m := res.MeanMAPE(); !math.IsNaN(m) && !math.IsInf(m, 0) {
			mapeSum += m
			scored++
		}
		if res.CPU != nil {
			s.TicketsBefore += res.CPU.TicketsBefore
			s.TicketsAfter += res.CPU.TicketsAfter
		}
		if res.RAM != nil {
			s.TicketsBefore += res.RAM.TicketsBefore
			s.TicketsAfter += res.RAM.TicketsAfter
		}
		return nil
	})
	if err != nil {
		return RollingSummary{}, err
	}
	if scored > 0 {
		s.MeanMAPE = mapeSum / float64(scored)
	}
	if s.Steps > 0 {
		s.MeanLambda = lambdaSum / float64(s.Steps)
	}
	return s, nil
}
