package core

import (
	"context"
	"errors"
	"testing"

	"atm/internal/trace"
)

// stationaryBox generates a long, gap-free, seasonally repetitive box:
// the workload the reuse fast-path is designed for.
func stationaryBox(t *testing.T, days int) (*trace.Box, int) {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: days, SamplesPerDay: 16, Seed: 7, GapFraction: 1e-9,
	})
	return &tr.Boxes[0], tr.SamplesPerDay
}

// TestRollingReuseResearchBudget checks the headline reuse guarantee:
// over a 20-step rolling run on a stationary trace, the staged
// pipeline runs the full signature search at most ceil(steps/MaxAge)
// times (age-forced researches only — no drift on a stationary
// workload) and refits the retained set on every other step, counted
// through the atm_engine_research_total / atm_engine_refit_total
// metrics.
func TestRollingReuseResearchBudget(t *testing.T) {
	b, spd := stationaryBox(t, 22) // 352 samples: T=32, H=16 → 20 steps
	cfg := fastConfig(spd)
	cfg.Reuse = ReusePolicy{Enabled: true}

	beforeResearch := researchTotal.Value()
	beforeRefit := refitTotal.Value()
	results, err := rollSteps(t, b, spd, cfg)
	if err != nil {
		t.Fatalf("rolling run: %v", err)
	}
	steps := len(results)
	if steps != 20 {
		t.Fatalf("steps = %d, want 20", steps)
	}
	researches := int(researchTotal.Value() - beforeResearch)
	refits := int(refitTotal.Value() - beforeRefit)

	budget := (steps + DefaultReuseMaxAge - 1) / DefaultReuseMaxAge // ceil(20/5) = 4
	if researches > budget {
		t.Errorf("researches = %d, budget %d", researches, budget)
	}
	if researches+refits != steps {
		t.Errorf("researches %d + refits %d != steps %d", researches, refits, steps)
	}
	flagged := 0
	for _, r := range results {
		if r.Research {
			flagged++
		}
	}
	if flagged != researches {
		t.Errorf("steps flagged research = %d, counter delta = %d", flagged, researches)
	}
	// The first step is always a research (cold pipeline).
	if !results[0].Research {
		t.Error("first step did not research")
	}
}

// TestRollingReuseOffResearchesEveryStep pins the batch-identical
// default: with the zero-value ReusePolicy every step runs the full
// search.
func TestRollingReuseOffResearchesEveryStep(t *testing.T) {
	b, spd := stationaryBox(t, 6) // 96 samples: T=32, H=16 → 4 steps
	before := researchTotal.Value()
	results, err := rollSteps(t, b, spd, fastConfig(spd))
	if err != nil {
		t.Fatalf("rolling run: %v", err)
	}
	if d := int(researchTotal.Value() - before); d != len(results) {
		t.Errorf("researches = %d over %d steps with reuse off", d, len(results))
	}
	for i, r := range results {
		if !r.Research {
			t.Errorf("step %d reused a model with reuse off", i)
		}
	}
}

// TestWindowBoxAliasing: a rolling run's windows are views that share
// the trace's backing arrays instead of cloning every VM series per
// step, which holds only while the pipeline never writes a usage
// series. A pipeline with reuse on — where the roller and the refit
// touch the window most — prepares and steps over every window, and the
// trace's samples stay bit for bit what they were.
func TestWindowBoxAliasing(t *testing.T) {
	b, spd := stationaryBox(t, 8)
	cfg := fastConfig(spd)
	cfg.Reuse = ReusePolicy{Enabled: true, MaxAge: 3}
	wb := windowBox(t, b, 8, 24)
	for v := range wb.VMs {
		if len(wb.VMs[v].CPU) != 16 {
			t.Fatalf("vm %d window len = %d", v, len(wb.VMs[v].CPU))
		}
		if &wb.VMs[v].CPU[0] != &b.VMs[v].CPU[8] || &wb.VMs[v].RAM[0] != &b.VMs[v].RAM[8] {
			t.Fatalf("vm %d window does not alias the trace", v)
		}
	}
	orig := make([][2][]float64, len(b.VMs))
	for v, vm := range b.VMs {
		orig[v] = [2][]float64{append([]float64(nil), vm.CPU...), append([]float64(nil), vm.RAM...)}
	}
	p, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	ctx := context.Background()
	for step, w := range rollingWindows(t, b, cfg) {
		if err := p.Prepare(ctx, windowBox(t, b, step*cfg.Horizon, step*cfg.Horizon+cfg.TrainWindows)); err != nil {
			t.Fatalf("step %d: prepare: %v", step, err)
		}
		if _, err := p.StepInto(ctx, w); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for v, vm := range b.VMs {
		if !sameBits(vm.CPU, orig[v][0]) || !sameBits(vm.RAM, orig[v][1]) {
			t.Fatalf("vm %d: stepping over aliasing windows wrote the trace", v)
		}
	}
}

// TestReuseConfigValidation checks the new Reuse knobs go through
// Config.validate.
func TestReuseConfigValidation(t *testing.T) {
	cfg := fastConfig(16)
	cfg.Reuse = ReusePolicy{Enabled: true, MinR2: 1.5}
	if _, err := NewPipeline(16, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MinR2 1.5: %v, want ErrBadConfig", err)
	}
	cfg.Reuse = ReusePolicy{Enabled: true, MinR2: -0.1}
	if _, err := NewPipeline(16, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MinR2 -0.1: %v, want ErrBadConfig", err)
	}
}
