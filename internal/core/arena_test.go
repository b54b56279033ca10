package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"atm/internal/race"
	"atm/internal/trace"
)

// windowBox returns a fresh box viewing samples [from, to) of b. Its
// usage series alias b's backing arrays (timeseries.Series.Slice is
// zero-copy), as the windows of every rolling run do: the pipeline
// treats usage series as read-only (TestWindowBoxAliasing).
func windowBox(t *testing.T, b *trace.Box, from, to int) *trace.Box {
	t.Helper()
	wb := &trace.Box{ID: b.ID, CPUCapGHz: b.CPUCapGHz, RAMCapGB: b.RAMCapGB, VMs: make([]trace.VM, len(b.VMs))}
	for i, vm := range b.VMs {
		if from < 0 || to > len(vm.CPU) || from >= to {
			t.Fatalf("window [%d,%d) out of range [0,%d)", from, to, len(vm.CPU))
		}
		wb.VMs[i] = trace.VM{ID: vm.ID, CPUCapGHz: vm.CPUCapGHz, RAMCapGB: vm.RAMCapGB,
			CPU: vm.CPU.Slice(from, to), RAM: vm.RAM.Slice(from, to)}
	}
	return wb
}

// rolled is one step of a rolling run: its result, cloned out of the
// pipeline's arena, and whether the step ran a full signature search.
type rolled struct {
	Result   *BoxResult
	Research bool
}

// rollSteps steps one pipeline over the box's rolling windows — the
// training window plus one horizon, sliding a horizon per step, the
// windows the engine steps a replayed trace over — and clones every
// result. A step without a result ends the run with its error; degraded
// steps' causes come back joined.
func rollSteps(t *testing.T, b *trace.Box, spd int, cfg Config) ([]rolled, error) {
	t.Helper()
	p, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var out []rolled
	var errs []error
	for _, wb := range rollingWindows(t, b, cfg) {
		res, err := p.StepInto(context.Background(), wb)
		if res == nil {
			return nil, err
		}
		errs = append(errs, err)
		out = append(out, rolled{Result: res.Clone(), Research: p.LastDecision().Research})
	}
	return out, errors.Join(errs...)
}

// rollingWindows pre-builds the windowed boxes of a rolling run so
// step loops (and allocation gates) don't pay the windowing cost.
func rollingWindows(t *testing.T, b *trace.Box, cfg Config) []*trace.Box {
	t.Helper()
	total := len(b.VMs[0].CPU)
	steps := (total - cfg.TrainWindows) / cfg.Horizon
	if steps <= 0 {
		t.Fatalf("trace too short: %d samples", total)
	}
	out := make([]*trace.Box, steps)
	for step := 0; step < steps; step++ {
		out[step] = windowBox(t, b, step*cfg.Horizon, cfg.TrainWindows+(step+1)*cfg.Horizon)
	}
	return out
}

func stepPair(t *testing.T, cfg Config, spd int) (*Pipeline, *Pipeline) {
	t.Helper()
	ref, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("reference pipeline: %v", err)
	}
	fast, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("fast pipeline: %v", err)
	}
	return ref, fast
}

func compareResults(t *testing.T, step int, want, got *BoxResult, tol float64) {
	t.Helper()
	close := func(a, b float64) bool {
		if tol == 0 {
			return a == b
		}
		return math.Abs(a-b) <= tol*math.Max(1, math.Abs(a))
	}
	for i := range want.Prediction.MAPE {
		if !close(want.Prediction.MAPE[i], got.Prediction.MAPE[i]) {
			t.Fatalf("step %d series %d: MAPE %g vs %g", step, i, want.Prediction.MAPE[i], got.Prediction.MAPE[i])
		}
	}
	for _, pair := range [][2]*BoxRun{{want.CPU, got.CPU}, {want.RAM, got.RAM}} {
		w, g := pair[0], pair[1]
		if w.TicketsBefore != g.TicketsBefore || w.TicketsAfter != g.TicketsAfter {
			t.Fatalf("step %d %s: tickets (%d,%d) vs (%d,%d)",
				step, w.Resource, w.TicketsBefore, w.TicketsAfter, g.TicketsBefore, g.TicketsAfter)
		}
		for v := range w.Sizes {
			if !close(w.Sizes[v], g.Sizes[v]) {
				t.Fatalf("step %d %s vm %d: size %g vs %g", step, w.Resource, v, w.Sizes[v], g.Sizes[v])
			}
		}
	}
}

// TestStepIntoIncrementalMatchesReference runs the incremental
// window-roll path against the reference refit: a second pipeline
// whose roller is dropped before every step, so each of its reuse
// steps takes spatial.RefitContext — the fallback a non-roll window
// gets in production. Same research decisions, identical ticket
// counts, predictions and sizes within 1e-9, and the roller must
// actually roll (not silently fall back to the reference refit).
func TestStepIntoIncrementalMatchesReference(t *testing.T) {
	b, spd := stationaryBox(t, 12)
	cfg := fastConfig(spd)
	cfg.Reuse = ReusePolicy{Enabled: true, MaxAge: 6}
	ref, fast := stepPair(t, cfg, spd)
	ctx := context.Background()
	beforeRolls := rollerRolls.Value()
	for step, wb := range rollingWindows(t, b, cfg) {
		ref.roller = nil
		want, err := ref.StepInto(ctx, wb)
		if err != nil {
			t.Fatalf("step %d: reference: %v", step, err)
		}
		rolls := rollerRolls.Value()
		got, err := fast.StepInto(ctx, wb)
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		research := fast.LastDecision().Research
		if ref.LastDecision().Research != research {
			t.Fatalf("step %d: research %v vs %v", step, ref.LastDecision().Research, research)
		}
		if step > 0 && !research && rollerRolls.Value() == rolls {
			t.Fatalf("step %d: reuse step on a rolled window did not roll", step)
		}
		compareResults(t, step, want, got, 1e-9)
	}
	if rolls := rollerRolls.Value() - beforeRolls; rolls == 0 {
		t.Fatal("incremental roller never rolled — every reuse step fell back to the reference refit")
	}
}

// TestStepIntoAllocFree is the tentpole gate: once warm, a steady-state
// StepInto performs zero heap allocations across the whole stage chain
// (demand extraction, incremental search, temporal fit/forecast,
// reconstruction, evaluation, and both resource resizes).
func TestStepIntoAllocFree(t *testing.T) {
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
	ctx := context.Background()
	// Warm up: the research step and the first rolls grow the arena.
	for _, wb := range windows[:3] {
		if _, err := p.StepInto(ctx, wb); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	next := 3
	allocs := testing.AllocsPerRun(len(windows)-4, func() {
		if _, err := p.StepInto(ctx, windows[next]); err != nil {
			t.Fatalf("step %d: %v", next, err)
		}
		if p.LastDecision().Research {
			t.Fatalf("step %d researched mid-gate", next)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state StepInto allocates %v objects per step, want 0", allocs)
	}
}

// TestRunRollingResultsOwnTheirMemory: results a rolling run retains
// are clones, not views of the pipeline's arena — scribbling over step
// k's sizes, model and prediction changes neither step k+1 nor a
// second run. Reuse is on, where the roller rewrites the live model's
// fits in place on every rolled window.
func TestRunRollingResultsOwnTheirMemory(t *testing.T) {
	b, spd := stationaryBox(t, 12)
	cfg := fastConfig(spd)
	cfg.Reuse = ReusePolicy{Enabled: true, MaxAge: 6}
	want, err := rollSteps(t, b, spd, cfg)
	if err != nil {
		t.Fatalf("rolling run: %v", err)
	}

	// The same run step by step, vandalizing every clone before the
	// pipeline takes its next step.
	p, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	refits := 0
	for step, wb := range rollingWindows(t, b, cfg) {
		res, err := p.StepInto(context.Background(), wb)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		compareResults(t, step, want[step].Result, res, 0)
		if !p.LastDecision().Research {
			refits++
		}
		c := res.Clone()
		for _, s := range [][]float64{c.CPU.Sizes, c.RAM.Sizes, c.Prediction.MAPE, c.Prediction.PeakMAPE} {
			for i := range s {
				s[i] = math.NaN()
			}
		}
		for _, d := range c.Prediction.Demand {
			for i := range d {
				d[i] = math.NaN()
			}
		}
		c.Prediction.Model.Signatures[0] = -1
		for _, fit := range c.Prediction.Model.Dependents {
			fit.Intercept = math.NaN()
			for j := range fit.Coef {
				fit.Coef[j] = math.NaN()
			}
		}
	}
	if refits == 0 {
		t.Fatal("no reuse step ran — the live model was never at risk")
	}

	// And the retained slice itself: every step still holds what it
	// held when it was taken, not the last step's arena contents.
	again, err := rollSteps(t, b, spd, cfg)
	if err != nil {
		t.Fatalf("rolling run: %v", err)
	}
	for step := range want {
		compareResults(t, step, want[step].Result, again[step].Result, 0)
		if step > 0 && &want[step].Result.CPU.Sizes[0] == &want[step-1].Result.CPU.Sizes[0] {
			t.Fatalf("steps %d and %d share a size slice", step-1, step)
		}
	}
}

// TestSolveScratchSharedAcrossPipelines: the resize working state is
// pooled per solve, not held per box, so two pipelines over boxes of
// different VM counts (3 and 17) that both prepare a step and then
// both finish it solve on each other's leftover scratch, and each
// finishes after the other has solved. Their sizes and tickets must be
// bit-equal to each pipeline stepped alone.
func TestSolveScratchSharedAcrossPipelines(t *testing.T) {
	boxOf := func(vms int, seed int64) *trace.Box {
		tr := trace.Generate(trace.GenConfig{
			Boxes: 1, Days: 8, SamplesPerDay: 16, Seed: seed, GapFraction: 1e-9,
			MeanVMs: vms, MinVMs: vms, MaxVMs: vms,
		})
		if got := len(tr.Boxes[0].VMs); got != vms {
			t.Fatalf("generated %d VMs, want %d", got, vms)
		}
		return &tr.Boxes[0]
	}
	boxes := []*trace.Box{boxOf(3, 3), boxOf(17, 4)}
	type outcome struct {
		sizes   [2][]float64
		tickets [2]int
	}
	ctx := context.Background()
	cfg := fastConfig(16)
	cfg.Reuse = ReusePolicy{Enabled: true, MaxAge: 3}
	windows := make([][]*trace.Box, len(boxes))
	trains := make([][]*trace.Box, len(boxes))
	for i, b := range boxes {
		windows[i] = rollingWindows(t, b, cfg)
		for s := range windows[i] {
			trains[i] = append(trains[i], windowBox(t, b, s*cfg.Horizon, s*cfg.Horizon+cfg.TrainWindows))
		}
	}
	step := func(p *Pipeline, wb *trace.Box) outcome {
		res, err := p.StepInto(ctx, wb)
		if err != nil {
			t.Fatalf("box %s: %v", wb.ID, err)
		}
		return outcome{
			sizes:   [2][]float64{append([]float64(nil), res.CPU.Sizes...), append([]float64(nil), res.RAM.Sizes...)},
			tickets: [2]int{res.CPU.TicketsAfter, res.RAM.TicketsAfter},
		}
	}
	newPipeline := func() *Pipeline {
		p, err := NewPipeline(16, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alone := make([][]outcome, len(boxes))
	for i := range boxes {
		p := newPipeline()
		for _, wb := range windows[i] {
			alone[i] = append(alone[i], step(p, wb))
		}
	}
	together := []*Pipeline{newPipeline(), newPipeline()}
	for s := range windows[0] {
		for i, p := range together {
			if err := p.Prepare(ctx, trains[i][s]); err != nil {
				t.Fatalf("step %d: prepare: %v", s, err)
			}
		}
		for i, p := range together {
			got, want := step(p, windows[i][s]), alone[i][s]
			for r := range got.sizes {
				if !sameBits(got.sizes[r], want.sizes[r]) || got.tickets[r] != want.tickets[r] {
					t.Fatalf("step %d box of %d VMs resource %d: interleaved %v (%d tickets), alone %v (%d tickets)",
						s, len(boxes[i].VMs), r, got.sizes[r], got.tickets[r], want.sizes[r], want.tickets[r])
				}
			}
		}
	}
}
