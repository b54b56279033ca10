package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/trace"
)

// oracleStep is one step of the reference rolling run: its result,
// cloned out of the pipeline's arena with a window box of its own, and
// whether it ran a full signature search.
type oracleStep struct {
	Result   *core.BoxResult
	Research bool
}

// rollOracle is the reference every replay of a trace is held to: one
// pipeline stepped with StepInto over the box's rolling windows — the
// training window plus one horizon, sliding a horizon per step,
// floor((samples - TrainWindows) / Horizon) steps — with no store,
// scheduler or controller in between. A step without a result ends the
// run with its error; degraded steps' causes come back joined.
func rollOracle(b *trace.Box, spd int, cfg core.Config) ([]oracleStep, error) {
	p, err := core.NewPipeline(spd, cfg)
	if err != nil {
		return nil, err
	}
	total := len(b.VMs[0].CPU)
	steps := (total - cfg.TrainWindows) / cfg.Horizon
	if steps <= 0 {
		return nil, core.ErrShortTrace
	}
	var out []oracleStep
	var errs []error
	for step := 0; step < steps; step++ {
		from, to := step*cfg.Horizon, cfg.TrainWindows+(step+1)*cfg.Horizon
		wb := &trace.Box{ID: b.ID, CPUCapGHz: b.CPUCapGHz, RAMCapGB: b.RAMCapGB, VMs: make([]trace.VM, len(b.VMs))}
		for v, vm := range b.VMs {
			wb.VMs[v] = trace.VM{ID: vm.ID, CPUCapGHz: vm.CPUCapGHz, RAMCapGB: vm.RAMCapGB,
				CPU: vm.CPU.Slice(from, to), RAM: vm.RAM.Slice(from, to)}
		}
		res, err := p.StepInto(context.Background(), wb)
		if res == nil {
			return nil, err
		}
		errs = append(errs, err)
		out = append(out, oracleStep{Result: res.Clone(), Research: p.LastDecision().Research})
	}
	return out, errors.Join(errs...)
}

// rollingConfig is a small online workload: 64 samples, T=32, H=8 →
// 4 steps, seasonal-naive over CBC signatures with reuse and degraded
// mode on, as the robustness sweep runs it.
func rollingConfig(spd int) core.Config {
	return core.Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 2 * spd,
		Horizon:      spd / 2,
		Threshold:    0.6,
		Epsilon:      0.1,
		Degraded:     true,
		Reuse:        core.ReusePolicy{Enabled: true, MaxAge: 10},
	}
}

func rollingBox(t *testing.T) (*trace.Box, int) {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{Boxes: 4, Days: 4, SamplesPerDay: 16, Seed: 7})
	gapFree := tr.GapFree()
	if len(gapFree) == 0 {
		t.Fatal("no gap-free box in test trace")
	}
	return gapFree[0], tr.SamplesPerDay
}

// replayed is one step a Replay visited, kept past the visit.
type replayed struct {
	plan Plan
	res  *core.BoxResult
}

// replayAll replays the box and keeps every visit, plans and results
// (with their window boxes) cloned.
func replayAll(t *testing.T, b *trace.Box, cfg Config) []replayed {
	t.Helper()
	var out []replayed
	err := Replay(context.Background(), b, cfg, func(p Plan, res *core.BoxResult, _ error) error {
		p.CPUSizes = append([]float64(nil), p.CPUSizes...)
		p.RAMSizes = append([]float64(nil), p.RAMSizes...)
		if res != nil {
			box := *res.Box
			box.VMs = append([]trace.VM(nil), res.Box.VMs...)
			res = res.Clone()
			res.Box = &box
		}
		out = append(out, replayed{p, res})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func plansOf(steps []replayed) []Plan {
	plans := make([]Plan, len(steps))
	for i, s := range steps {
		plans[i] = s.plan
	}
	return plans
}

// TestReplayMatchesOracle: a replay publishes the reference rolling
// run's plans step for step — sizes, tickets, MAPE and the research
// flag, bit for bit — with model reuse off and on, and each visited
// result's window box holds its own window of the trace. Ten days
// against a retention of four make the store's rings compact under the
// replay.
func TestReplayMatchesOracle(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 10, SamplesPerDay: 32, Seed: 13, GapFraction: 1e-9})
	b, spd := &tr.Boxes[0], tr.SamplesPerDay
	for _, reuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			cfg := fastConfig(spd, reuse)
			oracle, err := rollOracle(b, spd, cfg)
			if err != nil {
				t.Fatalf("rollOracle: %v", err)
			}
			got := replayAll(t, b, Config{Core: cfg, SamplesPerDay: spd})
			if len(got) != 8 {
				t.Fatalf("steps = %d, want 8", len(got))
			}
			checkParity(t, batchPlans(b.ID, oracle), plansOf(got))
			refits := 0
			for i, s := range got {
				if !s.plan.Research {
					refits++
				}
				from := i * cfg.Horizon
				for v, vm := range s.res.Box.VMs {
					if len(vm.CPU) != cfg.TrainWindows+cfg.Horizon {
						t.Fatalf("step %d vm %d: window of %d samples", i, v, len(vm.CPU))
					}
					for k := range vm.CPU {
						if vm.CPU[k] != b.VMs[v].CPU[from+k] || vm.RAM[k] != b.VMs[v].RAM[from+k] {
							t.Fatalf("step %d vm %d sample %d: window holds %v/%v, trace %v/%v", i, v, k,
								vm.CPU[k], vm.RAM[k], b.VMs[v].CPU[from+k], b.VMs[v].RAM[from+k])
						}
					}
				}
			}
			if reuse && refits == 0 {
				t.Fatal("model reuse on, yet every step re-searched")
			}
		})
	}
}

// TestReplayControlParity pins the controller's consistency end on the
// engine's replay: with the controller disabled — and equally with trust
// pinned at λ=1 — a replay publishes, step for step, the plans of the
// reference rolling run, bit for bit. Blending is strictly opt-in; full
// trust costs nothing.
func TestReplayControlParity(t *testing.T) {
	b, spd := rollingBox(t)
	cfg := rollingConfig(spd)
	oracle, err := rollOracle(b, spd, cfg)
	if err != nil {
		t.Fatalf("rollOracle: %v", err)
	}
	want := batchPlans(b.ID, oracle)

	off := replayAll(t, b, Config{Core: cfg, SamplesPerDay: spd})
	pinned := replayAll(t, b, Config{Core: cfg, SamplesPerDay: spd,
		Control: control.Config{Enabled: true, Fixed: true, Lambda: 1}})
	for name, got := range map[string][]replayed{"disabled": off, "λ=1": pinned} {
		t.Run(name, func(t *testing.T) {
			checkParity(t, want, plansOf(got))
			for i, s := range got {
				if s.plan.Box != b.ID || s.res == nil {
					t.Fatalf("step %d: plan of box %q, result %v", i, s.plan.Box, s.res)
				}
				if s.plan.Degraded {
					continue
				}
				wantLambda, wantReason := 0.0, ""
				if name == "λ=1" {
					wantLambda, wantReason = 1, control.ReasonFixed
				}
				if s.plan.Lambda != wantLambda || s.plan.BlendReason != wantReason {
					t.Fatalf("step %d: λ=%v reason %q, want %v %q", i, s.plan.Lambda, s.plan.BlendReason, wantLambda, wantReason)
				}
			}
		})
	}
}

// TestReplayPinnedZero: pure reactive trust (λ=0) blends every
// non-degraded step all the way to the stingy peak-demand allocation of
// the step's training window.
func TestReplayPinnedZero(t *testing.T) {
	b, spd := rollingBox(t)
	cfg := rollingConfig(spd)
	steps := replayAll(t, b, Config{Core: cfg, SamplesPerDay: spd,
		Control: control.Config{Enabled: true, Fixed: true, Lambda: 0}})
	if len(steps) == 0 {
		t.Fatal("λ=0 replay executed no steps")
	}
	blended := 0
	for i, s := range steps {
		if s.plan.Lambda != 0 {
			t.Fatalf("step %d: λ = %v, want 0", i, s.plan.Lambda)
		}
		if s.res.Degraded {
			continue
		}
		blended++
		for r, sizes := range [][]float64{s.plan.CPUSizes, s.plan.RAMSizes} {
			safe := core.StingySizesInto(s.res.Box, trace.Resource(r), cfg, nil)
			if !sameSizes(sizes, safe) {
				t.Fatalf("step %d resource %d: sizes %v, want the stingy %v", i, r, sizes, safe)
			}
		}
	}
	if blended == 0 {
		t.Fatal("no non-degraded step to blend")
	}
}

func sameSizes(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplayAdaptive: the adaptive controller runs end to end and keeps
// every step's trust within [0, 1].
func TestReplayAdaptive(t *testing.T) {
	b, spd := rollingBox(t)
	cfg := rollingConfig(spd)
	steps := replayAll(t, b, Config{Core: cfg, SamplesPerDay: spd, Control: control.Config{Enabled: true}})
	if len(steps) == 0 {
		t.Fatal("adaptive replay executed no steps")
	}
	for i, s := range steps {
		if s.plan.Lambda < 0 || s.plan.Lambda > 1 || s.plan.BlendReason == "" {
			t.Fatalf("step %d: λ = %v (reason %q), want a decision in [0,1]", i, s.plan.Lambda, s.plan.BlendReason)
		}
	}
}

// TestReplayShortTrace: a trace with no room for one step is refused
// before anything runs.
func TestReplayShortTrace(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 1, SamplesPerDay: 32, Seed: 14, GapFraction: 1e-9,
	})
	called := false
	err := Replay(context.Background(), &tr.Boxes[0], Config{Core: fastConfig(32, false), SamplesPerDay: 32},
		func(Plan, *core.BoxResult, error) error { called = true; return nil })
	if !errors.Is(err, core.ErrShortTrace) || called {
		t.Fatalf("err = %v (visited %v), want ErrShortTrace and no visit", err, called)
	}
}

// TestReplayVisitErrorAborts: the first error a visitor returns stops
// the replay: no later step is visited and Replay returns that error.
func TestReplayVisitErrorAborts(t *testing.T) {
	b, spd := rollingBox(t)
	stop := errors.New("stop")
	var visited []int
	err := Replay(context.Background(), b, Config{Core: rollingConfig(spd), SamplesPerDay: spd},
		func(p Plan, _ *core.BoxResult, _ error) error {
			visited = append(visited, p.Step)
			if p.Step == 1 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the visitor's", err)
	}
	if len(visited) != 2 || visited[0] != 0 || visited[1] != 1 {
		t.Fatalf("visited steps %v, want [0 1]", visited)
	}
}

// TestReplayCancelled: a cancelled context stops the replay before its
// next append with the context's error.
func TestReplayCancelled(t *testing.T) {
	b, spd := rollingBox(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Replay(ctx, b, Config{Core: rollingConfig(spd), SamplesPerDay: spd},
		func(Plan, *core.BoxResult, error) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayModelPhasePerStep: a replay runs one model phase — a full
// search or a refit — per step it visits, and none ahead for a step
// that never comes: not past the trace's end, not after a visitor's
// error.
func TestReplayModelPhasePerStep(t *testing.T) {
	research := obs.Default().Counter("atm_engine_research_total", "")
	refit := obs.Default().Counter("atm_engine_refit_total", "")
	phases := func() int { return int(research.Value() + refit.Value()) }
	b, spd := rollingBox(t)
	cfg := Config{Core: rollingConfig(spd), SamplesPerDay: spd}

	before := phases()
	steps := replayAll(t, b, cfg)
	if got := phases() - before; len(steps) != 4 || got != len(steps) {
		t.Fatalf("%d model phases over %d steps, want 4 and 4", got, len(steps))
	}

	stop := errors.New("stop")
	before = phases()
	err := Replay(context.Background(), b, cfg, func(p Plan, _ *core.BoxResult, _ error) error {
		if p.Step == 1 {
			return stop
		}
		return nil
	})
	if got := phases() - before; !errors.Is(err, stop) || got != 2 {
		t.Fatalf("err = %v after %d model phases, want the visitor's after 2", err, got)
	}
}
