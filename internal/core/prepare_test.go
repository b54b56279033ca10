package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"atm/internal/predict"
	"atm/internal/race"
	"atm/internal/spatial"
	"atm/internal/trace"
)

// sameBits compares floats as the pipeline must reproduce them: bit for
// bit, NaN equal to the same NaN.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireIdentical fails unless the split pipeline produced, and
// retained, exactly what the whole-step pipeline did: result, error,
// model, research decision and drift state, at tolerance 0.
func requireIdentical(t *testing.T, at string, whole, split *Pipeline, want, got *BoxResult, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error %v, want %v", at, gotErr, wantErr)
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: result %v, want %v", at, got, want)
	}
	if !reflect.DeepEqual(whole.reuseState, split.reuseState) {
		t.Fatalf("%s: retained state %+v, want %+v", at, split.reuseState, whole.reuseState)
	}
	if (whole.roller == nil) != (split.roller == nil) {
		t.Fatalf("%s: roller kept = %v, want %v", at, split.roller != nil, whole.roller != nil)
	}
	if want == nil {
		return
	}
	if want.Degraded != got.Degraded || fmt.Sprint(want.FallbackErr) != fmt.Sprint(got.FallbackErr) {
		t.Fatalf("%s: degraded %v (%v), want %v (%v)", at, got.Degraded, got.FallbackErr, want.Degraded, want.FallbackErr)
	}
	for _, pair := range [][2]*BoxRun{{want.CPU, got.CPU}, {want.RAM, got.RAM}} {
		w, g := pair[0], pair[1]
		if w.Resource != g.Resource || w.TicketsBefore != g.TicketsBefore || w.TicketsAfter != g.TicketsAfter || !sameBits(w.Sizes, g.Sizes) {
			t.Fatalf("%s %s: run %+v, want %+v", at, w.Resource, g, w)
		}
	}
	if (want.Prediction == nil) != (got.Prediction == nil) {
		t.Fatalf("%s: prediction %v, want %v", at, got.Prediction, want.Prediction)
	}
	if want.Prediction == nil {
		return
	}
	wp, gp := want.Prediction, got.Prediction
	if !sameBits(wp.MAPE, gp.MAPE) || !sameBits(wp.PeakMAPE, gp.PeakMAPE) {
		t.Fatalf("%s: prediction errors differ", at)
	}
	for i := range wp.Demand {
		if !sameBits(wp.Demand[i], gp.Demand[i]) {
			t.Fatalf("%s: predicted demand of series %d differs", at, i)
		}
	}
	if !reflect.DeepEqual(wp.Model, gp.Model) {
		t.Fatalf("%s: spatial model differs", at)
	}
}

// TestPrepareThenStepMatchesStep is the plan-ahead identity: running a
// step's model phase ahead, on a window that ends where the training
// samples do, and finishing it later on the full window leaves the same
// BoxResult and the same retained model, decision and drift state as
// the single StepInto call — over rolling runs with reuse off and on,
// exact and approximate DTW, the MLP and the seasonal-naive forecaster.
// Three windows in each run stress the key: one is prepared on the full
// window rather than its training part, one is prepared with a VM
// capacity that changes before the step (stale: the step recomputes
// from the state the prepared phase started from), and one prepared
// window is never stepped at all (skipped: the next window recomputes
// the same way). A NaN gap degrades the windows that train on it, on
// both sides alike, at finish time.
func TestPrepareThenStepMatchesStep(t *testing.T) {
	const fullAt, staleAt, skipAt = 2, 4, 7
	ctx := context.Background()
	forecasters := map[string]func(spd int) TemporalFactory{
		"naive": func(spd int) TemporalFactory {
			return func() predict.Model { return &predict.SeasonalNaive{Period: spd} }
		},
		"mlp": func(spd int) TemporalFactory {
			return func() predict.Model {
				m := predict.DefaultMLP(spd)
				m.Epochs = 3
				return m
			}
		},
	}
	for _, seed := range []int64{7, 19} {
		for _, reuse := range []bool{false, true} {
			for _, approx := range []bool{false, true} {
				for name, forecaster := range forecasters {
					for _, gap := range []bool{false, true} {
						t.Run(fmt.Sprintf("seed%d/reuse=%v/approx=%v/%s/gap=%v", seed, reuse, approx, name, gap), func(t *testing.T) {
							tr := trace.Generate(trace.GenConfig{
								Boxes: 1, Days: 12, SamplesPerDay: 16, Seed: seed, GapFraction: 1e-9,
							})
							b, spd := &tr.Boxes[0], tr.SamplesPerDay
							cfg := fastConfig(spd)
							cfg.Degraded = true
							cfg.UseLowerBounds = true
							cfg.Temporal = forecaster(spd)
							cfg.Spatial = spatial.Config{Method: spatial.MethodDTW, DTWApprox: approx, DTWWindow: 4}
							cfg.Reuse = ReusePolicy{Enabled: reuse, MaxAge: 3}
							if gap {
								b.VMs[1].RAM[cfg.TrainWindows+5*cfg.Horizon+3] = math.NaN()
							}
							whole, split := stepPair(t, cfg, spd)
							staleBefore, aheadBefore := phaseStale.Value(), phaseAhead.Value()
							steps := 0
							for step, wb := range rollingWindows(t, b, cfg) {
								train := windowBox(t, b, step*cfg.Horizon, step*cfg.Horizon+cfg.TrainWindows)
								switch step {
								case fullAt:
									train = wb
								case staleAt:
									// The VM is resized between the phases.
									wb.VMs[0].CPUCapGHz *= 1.5
								case skipAt:
									// Prepared, then passed over by both sides.
									if err := split.Prepare(ctx, train); err != nil && !gap {
										t.Fatalf("step %d: prepare: %v", step, err)
									}
									continue
								}
								var perr error
								if step != skipAt+1 { // that step meets the phase of the window before it
									perr = split.Prepare(ctx, train)
								}
								want, wantErr := whole.StepInto(ctx, wb)
								got, gotErr := split.StepInto(ctx, wb)
								requireIdentical(t, fmt.Sprint("step ", step), whole, split, want, got, wantErr, gotErr)
								if step != staleAt && step != skipAt+1 && fmt.Sprint(perr) != fmt.Sprint(gotErr) {
									t.Fatalf("step %d: Prepare returned %v, the step %v", step, perr, gotErr)
								}
								steps++
							}
							if got := phaseStale.Value() - staleBefore; got != 2 {
								t.Fatalf("%v steps found their prepared phase stale, want 2 (the resized window and the one after the skipped)", got)
							}
							if got := phaseAhead.Value() - aheadBefore; got != float64(steps-2) {
								t.Fatalf("%v of %d steps used their prepared phase, want all but 2", got, steps)
							}
						})
					}
				}
			}
		}
	}
}

// TestPrepareHeldErrorSurfacesAtStep: a model phase that fails ahead of
// time changes nothing until its step is due — then the step returns
// the held failure, with the degraded plan when that is on.
func TestPrepareHeldErrorSurfacesAtStep(t *testing.T) {
	b, spd := testBox(t, 11)
	b.VMs[0].CPU[spd/2] = math.NaN()
	cfg := fastConfig(spd)
	cfg.Degraded = true
	cfg.Spatial = spatial.Config{Method: spatial.MethodDTW}
	whole, split := stepPair(t, cfg, spd)
	ctx := context.Background()
	perr := split.Prepare(ctx, windowBox(t, b, 0, cfg.TrainWindows))
	if perr == nil {
		t.Fatal("Prepare over a NaN gap reported no failure")
	}
	want, wantErr := whole.StepInto(ctx, b)
	got, gotErr := split.StepInto(ctx, b)
	requireIdentical(t, "gap window", whole, split, want, got, wantErr, gotErr)
	if got == nil || !got.Degraded || gotErr == nil || gotErr.Error() != perr.Error() {
		t.Fatalf("step after a failed Prepare: result %+v, error %v; want the degraded plan and %v", got, gotErr, perr)
	}
}

// TestPrepareShortWindow: a window without a full training part
// prepares nothing, and the step that follows runs as if Prepare had
// not been called.
func TestPrepareShortWindow(t *testing.T) {
	b, spd := testBox(t, 5)
	cfg := fastConfig(spd)
	whole, split := stepPair(t, cfg, spd)
	ctx := context.Background()
	if err := split.Prepare(ctx, windowBox(t, b, 0, cfg.TrainWindows-1)); err == nil {
		t.Fatal("Prepare accepted a window shorter than the training part")
	}
	want, wantErr := whole.StepInto(ctx, b)
	got, gotErr := split.StepInto(ctx, b)
	requireIdentical(t, "after a short Prepare", whole, split, want, got, wantErr, gotErr)
}

// TestPrepareStepAllocFree: once warm, preparing a window and finishing
// it allocate nothing, like the single-call step.
func TestPrepareStepAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	b, spd := stationaryBox(t, 40)
	cfg := fastConfig(spd)
	cfg.Reuse = ReusePolicy{Enabled: true, MaxAge: 1 << 30, MAPEGrowth: 1e12}
	p, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	windows := rollingWindows(t, b, cfg)
	trains := make([]*trace.Box, len(windows))
	for step := range windows {
		trains[step] = windowBox(t, b, step*cfg.Horizon, step*cfg.Horizon+cfg.TrainWindows)
	}
	ctx := context.Background()
	next := 0
	step := func() {
		if err := p.Prepare(ctx, trains[next]); err != nil {
			t.Fatalf("prepare %d: %v", next, err)
		}
		if _, err := p.StepInto(ctx, windows[next]); err != nil {
			t.Fatalf("step %d: %v", next, err)
		}
		next++
	}
	for next < 3 {
		step()
	}
	if allocs := testing.AllocsPerRun(len(windows)-4, step); allocs != 0 {
		t.Fatalf("steady-state Prepare+StepInto allocates %v objects per step, want 0", allocs)
	}
}
