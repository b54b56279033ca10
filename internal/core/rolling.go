package core

import (
	"context"
	"errors"
	"fmt"

	"atm/internal/obs"
	"atm/internal/trace"
)

// RollingResult is the outcome of one resizing window in an online
// run.
type RollingResult struct {
	// Step is the zero-based resizing-window index.
	Step int
	// Result is the full per-box outcome for this window (prediction,
	// CPU and RAM runs), evaluated against that window's actuals.
	Result *BoxResult
	// Research reports whether this step ran a full signature search
	// (true) or reused the retained signature set with a cheap refit
	// (false). With Config.Reuse disabled it is true on every step.
	Research bool
}

// RunRolling drives ATM online over a long trace, the paper's stated
// future-work direction ("use ATM's prediction abilities to drive
// online dynamic workload management"): after the initial training
// history, each successive Horizon-sized window is predicted and
// resized using the most recent TrainWindows samples, sliding forward
// window by window. The number of steps is
//
//	floor((samples - TrainWindows) / Horizon).
//
// All steps run through one persistent Pipeline, so Config.Reuse
// turns on model reuse across windows: the signature set from the
// last full search is retained and only the cheap OLS/temporal
// weights are refit until drift (or age) forces a re-search. With
// Reuse disabled every step runs the full search, matching the batch
// pipeline bit for bit.
func RunRolling(b *trace.Box, samplesPerDay int, cfg Config) ([]RollingResult, error) {
	return RunRollingContext(context.Background(), b, samplesPerDay, cfg)
}

// RunRollingContext is RunRolling with tracing and cancellation (see
// Pipeline.Roll). It is the rolling driver plus retention: every
// step's arena-owned result is cloned into the returned slice, with a
// window box of its own. A step that fails aborts the run; with
// Config.Degraded a failed step keeps its flagged stingy-fallback
// result instead and the causes come back joined, like RunContext.
func RunRollingContext(ctx context.Context, b *trace.Box, samplesPerDay int, cfg Config) ([]RollingResult, error) {
	p, err := NewPipeline(samplesPerDay, cfg)
	if err != nil {
		return nil, err
	}
	var out []RollingResult
	var errs []error
	err = p.Roll(ctx, b, func(step int, wb *trace.Box, res *BoxResult, err error) error {
		if res == nil {
			return err
		}
		errs = append(errs, err)
		kept := res.Clone()
		box := *wb
		box.VMs = append([]trace.VM(nil), wb.VMs...)
		kept.Box = &box
		out = append(out, RollingResult{Step: step, Result: kept, Research: p.LastResearch()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, errors.Join(errs...)
}

// Roll drives the pipeline online over the box's whole trace: one
// StepInto per successive Horizon-sized window, each on the most
// recent TrainWindows samples, floor((samples - TrainWindows) /
// Horizon) steps in all. visit receives every step's window, result
// and error (naming the step) before the next step runs; both the
// window box and the result are reused by the next step, so a visitor
// that keeps either clones it. A non-nil return from visit aborts the
// run with that error.
//
// Under an obs.Tracer each window nests beneath a per-step
// "core.rolling_step" span inside one "core.rolling" root, and a
// context cancelled between steps aborts the run with the context's
// error.
func (p *Pipeline) Roll(ctx context.Context, b *trace.Box, visit func(step int, wb *trace.Box, res *BoxResult, err error) error) error {
	cfg := p.cfg
	total := 0
	if len(b.VMs) > 0 {
		total = len(b.VMs[0].CPU)
	}
	steps := (total - cfg.TrainWindows) / cfg.Horizon
	if steps <= 0 {
		return fmt.Errorf("core: %d samples for train %d + horizon %d: %w",
			total, cfg.TrainWindows, cfg.Horizon, ErrShortTrace)
	}
	ctx, span := obs.StartSpan(ctx, "core.rolling")
	defer span.End()
	span.SetAttr("box", b.ID)
	span.SetAttr("steps", steps)
	var wb trace.Box
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: rolling step %d: %w", step, err)
		}
		if err := windowInto(&wb, b, step*cfg.Horizon, cfg.TrainWindows+(step+1)*cfg.Horizon); err != nil {
			return fmt.Errorf("core: rolling step %d: %w", step, err)
		}
		stepCtx, sspan := obs.StartSpan(ctx, "core.rolling_step")
		sspan.SetAttr("step", step)
		res, err := p.StepInto(stepCtx, &wb)
		sspan.End()
		if err != nil {
			err = fmt.Errorf("core: rolling step %d: %w", step, err)
		}
		if err := visit(step, &wb, res, err); err != nil {
			return err
		}
	}
	return nil
}

// windowInto makes wb a view of the box restricted to sample range
// [from, to), reusing wb's VM slice. The view's usage series alias b's
// backing arrays (timeseries.Series.Slice is zero-copy) — no per-step
// cloning of every VM series.
//
// Aliasing contract: every downstream pipeline stage treats usage
// series as read-only. The step copies demands into its arena,
// clustering/regression/resize read their inputs, and evaluation only
// slices — nothing mutates the shared storage. Callers that need to
// mutate the windowed series must Clone them first.
func windowInto(wb, b *trace.Box, from, to int) error {
	wb.ID, wb.CPUCapGHz, wb.RAMCapGB = b.ID, b.CPUCapGHz, b.RAMCapGB
	if cap(wb.VMs) < len(b.VMs) {
		wb.VMs = make([]trace.VM, len(b.VMs))
	}
	wb.VMs = wb.VMs[:len(b.VMs)]
	for i := range b.VMs {
		vm := &b.VMs[i]
		if from < 0 || to > len(vm.CPU) || from >= to {
			return fmt.Errorf("core: window [%d,%d) out of range [0,%d)", from, to, len(vm.CPU))
		}
		wb.VMs[i] = trace.VM{
			ID:        vm.ID,
			CPUCapGHz: vm.CPUCapGHz,
			RAMCapGB:  vm.RAMCapGB,
			CPU:       vm.CPU.Slice(from, to),
			RAM:       vm.RAM.Slice(from, to),
		}
	}
	return nil
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

// SummarizeRolling aggregates the per-step results.
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
