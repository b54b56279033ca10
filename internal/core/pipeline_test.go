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
	results, err := RunRolling(b, spd, cfg)
	if err != nil {
		t.Fatalf("RunRolling: %v", err)
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
	sum := SummarizeRolling(results)
	if sum.Researches != researches {
		t.Errorf("summary researches = %d, counter delta = %d", sum.Researches, researches)
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
	results, err := RunRolling(b, spd, fastConfig(spd))
	if err != nil {
		t.Fatalf("RunRolling: %v", err)
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

// TestRollingContextCancellation checks RunRollingContext aborts
// between steps with the context's error.
func TestRollingContextCancellation(t *testing.T) {
	b, spd := stationaryBox(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunRollingContext(ctx, b, spd, fastConfig(spd))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestWindowBoxAliasing pins the zero-copy contract: the windowed
// box's series share the parent's backing arrays instead of cloning
// every VM series per step.
func TestWindowBoxAliasing(t *testing.T) {
	b, _ := stationaryBox(t, 3)
	wb := windowBox(t, b, 8, 24)
	for v := range wb.VMs {
		if len(wb.VMs[v].CPU) != 16 {
			t.Fatalf("vm %d window len = %d", v, len(wb.VMs[v].CPU))
		}
		if &wb.VMs[v].CPU[0] != &b.VMs[v].CPU[8] || &wb.VMs[v].RAM[0] != &b.VMs[v].RAM[8] {
			t.Errorf("vm %d window does not alias parent storage", v)
		}
	}
	if err := windowInto(wb, b, -1, 4); err == nil {
		t.Error("negative from accepted")
	}
	if err := windowInto(wb, b, 0, len(b.VMs[0].CPU)+1); err == nil {
		t.Error("past-end to accepted")
	}
	if err := windowInto(wb, b, 4, 4); err == nil {
		t.Error("empty window accepted")
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
