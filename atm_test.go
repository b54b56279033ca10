package atm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"atm/internal/engine"
)

func fastSystem(spd int, opts ...Option) *System {
	base := []Option{WithSeasonalNaive(), WithTrainDays(2), WithHorizonDays(1)}
	return New(spd, append(base, opts...)...)
}

func TestNewDefaults(t *testing.T) {
	s := New(96)
	cfg := s.Config()
	if cfg.TrainWindows != 5*96 {
		t.Errorf("TrainWindows = %d, want 480", cfg.TrainWindows)
	}
	if cfg.Horizon != 96 {
		t.Errorf("Horizon = %d, want 96", cfg.Horizon)
	}
	if cfg.Threshold != 0.6 {
		t.Errorf("Threshold = %v, want 0.6", cfg.Threshold)
	}
	if cfg.Epsilon != 5 {
		t.Errorf("Epsilon = %v, want 5", cfg.Epsilon)
	}
	if cfg.Spatial.Method != MethodCBC {
		t.Errorf("Method = %v, want CBC", cfg.Spatial.Method)
	}
}

func TestOptions(t *testing.T) {
	s := New(48,
		WithMethod(MethodDTW),
		WithTrainDays(3),
		WithHorizonDays(2),
		WithThreshold(0.8),
		WithEpsilon(10),
		WithLowerBounds(),
	)
	cfg := s.Config()
	if cfg.Spatial.Method != MethodDTW {
		t.Error("WithMethod ignored")
	}
	if cfg.TrainWindows != 144 || cfg.Horizon != 96 {
		t.Errorf("train/horizon = %d/%d, want 144/96", cfg.TrainWindows, cfg.Horizon)
	}
	if cfg.Threshold != 0.8 || cfg.Epsilon != 10 || !cfg.UseLowerBounds {
		t.Error("threshold/epsilon/lower-bound options ignored")
	}
	if cfg.Reuse.Enabled {
		t.Error("model reuse on by default; must be opt-in")
	}
	if !New(48, WithModelReuse()).Config().Reuse.Enabled {
		t.Error("WithModelReuse ignored")
	}
}

func TestEndToEnd(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Boxes: 4, Days: 3, SamplesPerDay: 32, Seed: 17, GapFraction: 1e-9})
	sys := fastSystem(tr.SamplesPerDay)
	results, err := sys.Run(tr.GapFree())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	sum := Summarize(results)
	if sum.Boxes != 4 {
		t.Errorf("summary boxes = %d, want 4", sum.Boxes)
	}
	if sum.MeanMAPE <= 0 || sum.MeanMAPE > 1.5 {
		t.Errorf("MeanMAPE = %v, implausible", sum.MeanMAPE)
	}
	if sum.SignatureRatio <= 0 || sum.SignatureRatio > 1 {
		t.Errorf("SignatureRatio = %v, want in (0,1]", sum.SignatureRatio)
	}
}

func TestSummarizeEmptyAndNil(t *testing.T) {
	if got := Summarize(nil); got.Boxes != 0 {
		t.Errorf("empty summary = %+v", got)
	}
	if got := Summarize([]*Result{nil, nil}); got.Boxes != 0 {
		t.Errorf("nil-only summary = %+v", got)
	}
}

func TestSummarizeRollingEmpty(t *testing.T) {
	if s := SummarizeRolling(nil); s.Steps != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// TestRunRollingBoxMatchesReplay: the facade's rolling run keeps, step
// for step, what the engine's replay of the same trace visits — sizes,
// tickets, MAPE and the research flag, bit for bit — with and without
// model reuse, and what it keeps is its own: no two steps share a size
// slice, and every step still holds its window of the trace once the
// replay's store has moved on (ten days against a retention of four).
// The replay itself is held to the reference rolling run in engine's
// TestReplayMatchesOracle.
func TestRunRollingBoxMatchesReplay(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Boxes: 1, Days: 10, SamplesPerDay: 32, Seed: 13, GapFraction: 1e-9})
	b := &tr.Boxes[0]
	type step struct {
		sizes    [2][]float64
		tickets  [4]int
		mape     float64
		research bool
	}
	for _, reuse := range []bool{false, true} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			var opts []Option
			if reuse {
				opts = append(opts, WithModelReuse())
			}
			sys := fastSystem(tr.SamplesPerDay, opts...)
			got, err := sys.RunRollingBox(b)
			if err != nil {
				t.Fatalf("RunRollingBox: %v", err)
			}
			var want []step
			err = engine.Replay(context.Background(), b, engine.Config{Core: sys.Config(), SamplesPerDay: tr.SamplesPerDay},
				func(p engine.Plan, res *Result, err error) error {
					if err != nil {
						return err
					}
					want = append(want, step{
						sizes:    [2][]float64{slices.Clone(res.CPU.Sizes), slices.Clone(res.RAM.Sizes)},
						tickets:  [4]int{res.CPU.TicketsBefore, res.CPU.TicketsAfter, res.RAM.TicketsBefore, res.RAM.TicketsAfter},
						mape:     res.MeanMAPE(),
						research: p.Research,
					})
					return nil
				})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if len(got) != len(want) || len(got) != 8 {
				t.Fatalf("steps = %d, replay %d, want 8", len(got), len(want))
			}
			cfg := sys.Config()
			refits := 0
			for i, g := range got {
				w, r := want[i], g.Result
				if g.Step != i || g.Research != w.research {
					t.Fatalf("step %d: (step %d, research %v), want (%d, %v)", i, g.Step, g.Research, i, w.research)
				}
				if !g.Research {
					refits++
				}
				if math.Float64bits(r.MeanMAPE()) != math.Float64bits(w.mape) {
					t.Fatalf("step %d: MAPE %v, want %v", i, r.MeanMAPE(), w.mape)
				}
				if tickets := [4]int{r.CPU.TicketsBefore, r.CPU.TicketsAfter, r.RAM.TicketsBefore, r.RAM.TicketsAfter}; tickets != w.tickets {
					t.Fatalf("step %d: tickets %v, want %v", i, tickets, w.tickets)
				}
				for k, sizes := range [][]float64{r.CPU.Sizes, r.RAM.Sizes} {
					if !slices.Equal(sizes, w.sizes[k]) {
						t.Fatalf("step %d resource %d: sizes %v, want %v", i, k, sizes, w.sizes[k])
					}
				}
				if i > 0 && &r.CPU.Sizes[0] == &got[i-1].Result.CPU.Sizes[0] {
					t.Fatalf("steps %d and %d share a size slice", i-1, i)
				}
				from := i * cfg.Horizon
				for v, vm := range r.Box.VMs {
					if !slices.Equal(vm.CPU, b.VMs[v].CPU[from:from+cfg.TrainWindows+cfg.Horizon]) ||
						!slices.Equal(vm.RAM, b.VMs[v].RAM[from:from+cfg.TrainWindows+cfg.Horizon]) {
						t.Fatalf("step %d vm %d: window does not hold trace samples [%d, %d)", i, v, from, from+cfg.TrainWindows+cfg.Horizon)
					}
				}
			}
			if reuse && refits == 0 {
				t.Fatal("model reuse on, yet every step re-searched")
			}
		})
	}
}

// TestRunRollingBoxRejectsGaps: the rolling run replays the trace into
// the streaming store, which accepts no gap (NaN) samples, so a box
// with a gap fails before its first step.
func TestRunRollingBoxRejectsGaps(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Boxes: 1, Days: 4, SamplesPerDay: 24, Seed: 8, GapFraction: 1e-9})
	b := &tr.Boxes[0]
	b.VMs[0].CPU[5] = math.NaN()
	steps, err := fastSystem(24).RunRollingBox(b)
	if err == nil || len(steps) != 0 {
		t.Fatalf("%d steps, err = %v; want no steps and an error", len(steps), err)
	}
}

func TestGenerateTraceFacade(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Boxes: 2, Days: 1, SamplesPerDay: 24, Seed: 5})
	if len(tr.Boxes) != 2 || tr.Samples() != 24 {
		t.Errorf("trace geometry wrong: %d boxes, %d samples", len(tr.Boxes), tr.Samples())
	}
}

func TestWithTemporalCustomModel(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Boxes: 1, Days: 2, SamplesPerDay: 24, Seed: 8, GapFraction: 1e-9})
	calls := 0
	sys := New(24,
		WithTrainDays(1),
		WithHorizonDays(1),
		WithTemporal(func() TemporalModel {
			calls++
			return &countingModel{horizonValue: 10}
		}),
	)
	res, err := sys.RunBox(&tr.Boxes[0])
	if err != nil {
		t.Fatalf("RunBox: %v", err)
	}
	if calls == 0 {
		t.Error("custom temporal factory never invoked")
	}
	if calls != len(res.Prediction.Model.Signatures) {
		t.Errorf("factory calls = %d, signatures = %d", calls, len(res.Prediction.Model.Signatures))
	}
}

// countingModel is a trivial Model for factory-wiring tests.
type countingModel struct {
	horizonValue float64
	fitted       bool
}

func (c *countingModel) Name() string { return "counting" }

func (c *countingModel) Fit(history Series) error {
	c.fitted = true
	return nil
}

func (c *countingModel) Forecast(horizon int) (Series, error) {
	out := make(Series, horizon)
	for i := range out {
		out[i] = c.horizonValue
	}
	return out, nil
}
