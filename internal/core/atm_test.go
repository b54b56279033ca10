package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// fastConfig keeps temporal models cheap for tests: a seasonal-naive
// model is instant and exploits the generator's daily structure.
func fastConfig(spd int) Config {
	return Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 2 * spd,
		Horizon:      spd,
		Threshold:    0.6,
		Epsilon:      0.1,
	}
}

// predictBox runs the prediction stages of a fresh pipeline (no
// retained model state, no reuse) on the first TrainWindows samples of
// the demand series and forecasts the next Horizon samples.
func predictBox(demands []timeseries.Series, samplesPerDay int, cfg Config) (*BoxPrediction, error) {
	p, err := NewPipeline(samplesPerDay, cfg)
	if err != nil {
		return nil, err
	}
	if err := checkWindow(demands, cfg.TrainWindows+cfg.Horizon); err != nil {
		return nil, err
	}
	return p.predictInto(context.Background(), demands)
}

func testBox(t *testing.T, seed int64) (*trace.Box, int) {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: seed, GapFraction: 1e-9,
	})
	return &tr.Boxes[0], tr.SamplesPerDay
}

func TestPredictBoxShapes(t *testing.T) {
	b, spd := testBox(t, 3)
	cfg := fastConfig(spd)
	pred, err := predictBox(b.DemandSeries(), spd, cfg)
	if err != nil {
		t.Fatalf("PredictBox: %v", err)
	}
	want := len(b.VMs) * trace.NumResources
	if len(pred.Demand) != want {
		t.Fatalf("predicted %d series, want %d", len(pred.Demand), want)
	}
	for i, d := range pred.Demand {
		if len(d) != cfg.Horizon {
			t.Fatalf("series %d horizon = %d, want %d", i, len(d), cfg.Horizon)
		}
		for j, v := range d {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("series %d forecast[%d] = %v", i, j, v)
			}
		}
	}
	if len(pred.Model.Signatures) == 0 || len(pred.Model.Signatures) > want {
		t.Errorf("signatures = %v", pred.Model.Signatures)
	}
}

func TestPredictBoxAccuracy(t *testing.T) {
	// The generator's series have strong daily structure, so the
	// seasonal-naive + spatial pipeline should land in the same error
	// regime the paper reports (20-31% average APE).
	b, spd := testBox(t, 5)
	cfg := fastConfig(spd)
	demands := b.DemandSeries()
	pred, err := predictBox(demands, spd, cfg)
	if err != nil {
		t.Fatalf("PredictBox: %v", err)
	}
	if err := pred.Evaluate(demands, cfg, nil); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var sum float64
	for _, m := range pred.MAPE {
		sum += m
	}
	avg := sum / float64(len(pred.MAPE))
	if avg > 0.70 {
		t.Errorf("mean MAPE = %v, want < 70%%", avg)
	}
}

func TestPredictBoxErrors(t *testing.T) {
	b, spd := testBox(t, 7)
	cfg := fastConfig(spd)
	if _, err := predictBox(nil, spd, cfg); !errors.Is(err, spatial.ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
	short := cfg
	short.TrainWindows = 10 * spd
	if _, err := predictBox(b.DemandSeries(), spd, short); !errors.Is(err, ErrShortTrace) {
		t.Errorf("err = %v, want ErrShortTrace", err)
	}
	bad := cfg
	bad.Horizon = 0
	if _, err := predictBox(b.DemandSeries(), spd, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
	bad = cfg
	bad.Threshold = 2
	if _, err := predictBox(b.DemandSeries(), spd, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

func TestResizeBoxReducesTickets(t *testing.T) {
	// Find a box with baseline tickets and check ATM cuts them.
	cfgBase := fastConfig(32)
	totalBefore, totalAfter := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		b, spd := testBox(t, seed)
		cfg := fastConfig(spd)
		pred, err := predictBox(b.DemandSeries(), spd, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		run, err := ResizeBoxContext(context.Background(), b, pred, trace.CPU, cfg)
		if err != nil {
			t.Fatalf("seed %d resize: %v", seed, err)
		}
		var sum float64
		for _, s := range run.Sizes {
			sum += s
		}
		if sum > b.CPUCapGHz+1e-6 {
			t.Fatalf("seed %d: allocation %v exceeds box capacity %v", seed, sum, b.CPUCapGHz)
		}
		totalBefore += run.TicketsBefore
		totalAfter += run.TicketsAfter
	}
	if totalBefore == 0 {
		t.Fatal("no baseline tickets across 12 boxes; generator drifted")
	}
	if totalAfter >= totalBefore {
		t.Errorf("tickets before=%d after=%d; want a reduction", totalBefore, totalAfter)
	}
	_ = cfgBase
}

func TestRunBoxBothResources(t *testing.T) {
	b, spd := testBox(t, 2)
	res, err := RunBox(b, spd, fastConfig(spd))
	if err != nil {
		t.Fatalf("RunBox: %v", err)
	}
	if res.CPU == nil || res.RAM == nil {
		t.Fatal("missing per-resource runs")
	}
	if res.CPU.Resource != trace.CPU || res.RAM.Resource != trace.RAM {
		t.Error("resource labels wrong")
	}
	if len(res.CPU.Sizes) != len(b.VMs) {
		t.Errorf("CPU sizes = %d, want %d", len(res.CPU.Sizes), len(b.VMs))
	}
	if res.MeanMAPE() <= 0 {
		t.Errorf("MeanMAPE = %v, want positive", res.MeanMAPE())
	}
	// Reduction is within [-1, 1] by construction of ticket.Reduction
	// except for genuine increases; just check it is finite.
	if math.IsNaN(res.CPU.Reduction()) {
		t.Error("CPU reduction NaN")
	}
}

func TestRunManyBoxesConcurrent(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 6, Days: 3, SamplesPerDay: 32, Seed: 21, GapFraction: 1e-9,
	})
	boxes := make([]*trace.Box, len(tr.Boxes))
	for i := range tr.Boxes {
		boxes[i] = &tr.Boxes[i]
	}
	results, err := Run(boxes, tr.SamplesPerDay, fastConfig(tr.SamplesPerDay))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for i, r := range results {
		if r == nil || r.Box != boxes[i] {
			t.Errorf("result %d misaligned", i)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 2, Days: 1, SamplesPerDay: 16, Seed: 9, GapFraction: 1e-9,
	})
	boxes := []*trace.Box{&tr.Boxes[0], &tr.Boxes[1]}
	cfg := fastConfig(16)
	cfg.TrainWindows = 1000 // longer than the trace
	if _, err := Run(boxes, 16, cfg); !errors.Is(err, ErrShortTrace) {
		t.Errorf("err = %v, want ErrShortTrace", err)
	}
}

func TestUseLowerBounds(t *testing.T) {
	b, spd := testBox(t, 4)
	cfg := fastConfig(spd)
	cfg.UseLowerBounds = true
	pred, err := predictBox(b.DemandSeries(), spd, cfg)
	if err != nil {
		t.Fatalf("PredictBox: %v", err)
	}
	run, err := ResizeBoxContext(context.Background(), b, pred, trace.CPU, cfg)
	if err != nil {
		// Lower bounds can make tight boxes infeasible; that is a
		// legitimate outcome, not a test failure — but our generator
		// leaves headroom, so it should not happen here.
		t.Fatalf("ResizeBox with lower bounds: %v", err)
	}
	for v := range b.VMs {
		peak := b.VMs[v].Demand(trace.CPU).Slice(0, cfg.TrainWindows).Max()
		if run.Sizes[v] < peak-1e-9 {
			t.Errorf("vm %d size %v below historical peak %v", v, run.Sizes[v], peak)
		}
	}
}

func TestDefaultTemporalIsMLP(t *testing.T) {
	// With Temporal nil the pipeline must still work (using the MLP).
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 16, Seed: 31, GapFraction: 1e-9, MaxVMs: 4, MeanVMs: 3, MinVMs: 2,
	})
	b := &tr.Boxes[0]
	cfg := Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		TrainWindows: 32, // the seasonal MLP needs more than one period
		Horizon:      8,
		Threshold:    0.6,
	}
	pred, err := predictBox(b.DemandSeries(), tr.SamplesPerDay, cfg)
	if err != nil {
		t.Fatalf("PredictBox with default temporal: %v", err)
	}
	if len(pred.Demand) == 0 {
		t.Fatal("no forecasts")
	}
}

func TestRunRolling(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 5, SamplesPerDay: 32, Seed: 13, GapFraction: 1e-9,
	})
	b := &tr.Boxes[0]
	cfg := fastConfig(32) // train 64, horizon 32 → 3 rolling steps over 160
	results, err := rollSteps(t, b, 32, cfg)
	if err != nil {
		t.Fatalf("rolling run: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("steps = %d, want 3", len(results))
	}
	var mape float64
	var before, after int
	for i, r := range results {
		if r.Result == nil {
			t.Fatalf("step %d malformed: %+v", i, r)
		}
		if len(r.Result.CPU.Sizes) != len(b.VMs) {
			t.Errorf("step %d sizes = %d", i, len(r.Result.CPU.Sizes))
		}
		mape += r.Result.MeanMAPE() / float64(len(results))
		before += r.Result.CPU.TicketsBefore + r.Result.RAM.TicketsBefore
		after += r.Result.CPU.TicketsAfter + r.Result.RAM.TicketsAfter
	}
	if mape <= 0 {
		t.Errorf("mean MAPE = %v", mape)
	}
	if before > 0 && after > before {
		t.Errorf("online ATM increased tickets: %d -> %d", before, after)
	}
}

func TestEvaluateAndPeakMAPE(t *testing.T) {
	b, spd := testBox(t, 6)
	cfg := fastConfig(spd)
	demands := b.DemandSeries()
	pred, err := predictBox(demands, spd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong series count is rejected.
	if err := pred.Evaluate(demands[:1], cfg, nil); err == nil {
		t.Error("Evaluate accepted mismatched series count")
	}
	// With per-series peak levels, PeakMAPE gets populated and the
	// box-level aggregates are finite.
	peaks := make([]float64, len(demands))
	for i := range peaks {
		vm := &b.VMs[trace.SeriesVM(i)]
		peaks[i] = cfg.Threshold * vm.Capacity(trace.SeriesResource(i))
	}
	if err := pred.Evaluate(demands, cfg, peaks); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	res := &BoxResult{Box: b, Prediction: pred}
	if m := res.MeanPeakMAPE(); math.IsNaN(m) || m < 0 {
		t.Errorf("MeanPeakMAPE = %v", m)
	}
	// A prediction with no peaks at all yields 0.
	empty := &BoxResult{Box: b, Prediction: &BoxPrediction{PeakMAPE: []float64{0, 0}}}
	if got := empty.MeanPeakMAPE(); got != 0 {
		t.Errorf("no-peak MeanPeakMAPE = %v, want 0", got)
	}
}

func TestResizeBoxValidatesConfig(t *testing.T) {
	b, spd := testBox(t, 8)
	cfg := fastConfig(spd)
	pred, err := predictBox(b.DemandSeries(), spd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Threshold = 0
	if _, err := ResizeBoxContext(context.Background(), b, pred, trace.CPU, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

func TestDoNoHarmGuard(t *testing.T) {
	// A box whose current allocation is already predicted ticket-free
	// must keep its sizes when the optimizer cannot do better.
	b, spd := testBox(t, 16)
	cfg := fastConfig(spd)
	pred, err := predictBox(b.DemandSeries(), spd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := ResizeBoxContext(context.Background(), b, pred, trace.RAM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Either the guard kept the current sizes, or the optimizer found a
	// strictly-no-worse predicted allocation; in both cases actual
	// tickets must not explode from a zero baseline.
	if run.TicketsBefore == 0 && run.TicketsAfter > 5 {
		t.Errorf("zero-baseline box gained %d tickets", run.TicketsAfter)
	}
}
