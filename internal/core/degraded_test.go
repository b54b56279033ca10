package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"atm/internal/cluster"
	"atm/internal/spatial"
	"atm/internal/trace"
)

// cripple truncates every series of the box below train+horizon so the
// pipeline fails with ErrShortTrace.
func cripple(b *trace.Box, keep int) {
	for v := range b.VMs {
		vm := &b.VMs[v]
		vm.CPU = vm.CPU.Slice(0, keep)
		vm.RAM = vm.RAM.Slice(0, keep)
	}
}

func TestRunDegradedFallback(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 2, Days: 3, SamplesPerDay: 32, Seed: 5, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	boxes := []*trace.Box{&tr.Boxes[0], &tr.Boxes[1]}
	cripple(boxes[1], spd)

	cfg := fastConfig(spd)
	cfg.Degraded = true
	results, err := Run(boxes, spd, cfg)
	if !errors.Is(err, ErrShortTrace) {
		t.Fatalf("err = %v, want joined ErrShortTrace", err)
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("results = %v, want both boxes present", results)
	}
	if results[0].Degraded {
		t.Error("healthy box flagged degraded")
	}
	deg := results[1]
	if !deg.Degraded || !errors.Is(deg.FallbackErr, ErrShortTrace) {
		t.Fatalf("degraded box = {Degraded:%v FallbackErr:%v}", deg.Degraded, deg.FallbackErr)
	}
	if deg.Prediction != nil {
		t.Error("degraded box carries a prediction")
	}
	if !math.IsNaN(deg.MeanMAPE()) || !math.IsNaN(deg.MeanPeakMAPE()) {
		t.Error("degraded box error stats are not NaN")
	}

	// The stingy fallback: positive per-VM sizes that fit the box and
	// cover each VM's training-history peak (or its proportional share
	// on an oversubscribed box).
	for _, rc := range []struct {
		run *BoxRun
		r   trace.Resource
		cap float64
	}{
		{deg.CPU, trace.CPU, deg.Box.CPUCapGHz},
		{deg.RAM, trace.RAM, deg.Box.RAMCapGB},
	} {
		if rc.run == nil || len(rc.run.Sizes) != len(deg.Box.VMs) {
			t.Fatalf("%v fallback run = %+v", rc.r, rc.run)
		}
		var sum float64
		for v, s := range rc.run.Sizes {
			if s <= 0 {
				t.Errorf("%v size[%d] = %v, want positive", rc.r, v, s)
			}
			peak := deg.Box.VMs[v].Demand(rc.r).Max()
			if s > peak*(1+1e-9) && s != minLimit {
				t.Errorf("%v size[%d] = %v exceeds training peak %v", rc.r, v, s, peak)
			}
			sum += s
		}
		if sum > rc.cap*(1+1e-9) {
			t.Errorf("%v sizes sum %v exceed box capacity %v", rc.r, sum, rc.cap)
		}
	}
}

func TestRunDegradedKeepsStrictModeSemantics(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: 6, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	b := &tr.Boxes[0]
	cripple(b, spd)
	cfg := fastConfig(spd)
	// Degraded off: the failure aborts with no results, as before.
	results, err := Run([]*trace.Box{b}, spd, cfg)
	if !errors.Is(err, ErrShortTrace) || results != nil {
		t.Fatalf("strict mode = (%v, %v), want (nil, ErrShortTrace)", results, err)
	}
}

func TestRunDegradedDoesNotMaskBadConfig(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: 7, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	cfg := fastConfig(spd)
	cfg.Degraded = true
	cfg.Threshold = 0 // operator mistake, must not degrade
	results, err := Run([]*trace.Box{&tr.Boxes[0]}, spd, cfg)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if len(results) != 1 || results[0] != nil {
		t.Fatalf("results = %v, want a single nil entry", results)
	}
}

// TestStingySizesIntoMatchesFallback pins the exported safe-allocation
// kernel to the degraded path it was extracted from: same box, same
// config, bit-identical sizes — and a reused destination buffer is
// allocation-free without changing a single value.
func TestStingySizesIntoMatchesFallback(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: 9, GapFraction: 1e-9,
	})
	b := &tr.Boxes[0]
	cfg := fastConfig(tr.SamplesPerDay)
	cfg.Degraded = true
	res := degradedResult(b, cfg, ErrShortTrace)
	for _, rc := range []struct {
		r   trace.Resource
		run *BoxRun
	}{{trace.CPU, res.CPU}, {trace.RAM, res.RAM}} {
		got := StingySizesInto(b, rc.r, cfg, nil)
		if len(got) != len(rc.run.Sizes) {
			t.Fatalf("%v: %d sizes, want %d", rc.r, len(got), len(rc.run.Sizes))
		}
		for v := range got {
			if got[v] != rc.run.Sizes[v] {
				t.Fatalf("%v vm %d: StingySizesInto %v != fallback %v", rc.r, v, got[v], rc.run.Sizes[v])
			}
		}
	}

	dst := StingySizesInto(b, trace.CPU, cfg, nil)
	want := append([]float64(nil), dst...)
	allocs := testing.AllocsPerRun(50, func() {
		dst = StingySizesInto(b, trace.CPU, cfg, dst)
	})
	if allocs != 0 {
		t.Fatalf("reused StingySizesInto allocates %.1f objects/op, want 0", allocs)
	}
	for v := range want {
		if dst[v] != want[v] {
			t.Fatalf("vm %d: reused-buffer size %v != %v", v, dst[v], want[v])
		}
	}
}

// TestStingyFallbackEvictedWindow covers the ring-evicted box: the
// remaining history is shorter than even the training window, so the
// pipeline must degrade cleanly and the fallback must size from the
// samples that survive — never invent data, never return zero sizes.
func TestStingyFallbackEvictedWindow(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: 10, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	b := &tr.Boxes[0]
	cfg := fastConfig(spd)
	cfg.Degraded = true
	keep := cfg.TrainWindows / 2 // eviction ate past the window start
	cripple(b, keep)

	p, err := NewPipeline(spd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.StepInto(context.Background(), b)
	if !errors.Is(err, ErrShortTrace) {
		t.Fatalf("err = %v, want ErrShortTrace", err)
	}
	if res == nil || !res.Degraded {
		t.Fatalf("res = %+v, want degraded fallback", res)
	}
	for _, rc := range []struct {
		r   trace.Resource
		run *BoxRun
		cap float64
	}{{trace.CPU, res.CPU, b.CPUCapGHz}, {trace.RAM, res.RAM, b.RAMCapGB}} {
		if rc.run == nil || len(rc.run.Sizes) != len(b.VMs) {
			t.Fatalf("%v: fallback run %+v", rc.r, rc.run)
		}
		var sum float64
		for v, s := range rc.run.Sizes {
			if s <= 0 {
				t.Errorf("%v size[%d] = %v, want positive", rc.r, v, s)
			}
			// The peak is over the surviving samples only.
			peak := b.VMs[v].Demand(rc.r).Slice(0, keep).Max()
			if peak < minLimit {
				peak = minLimit
			}
			if s > peak*(1+1e-9) {
				t.Errorf("%v size[%d] = %v exceeds surviving peak %v", rc.r, v, s, peak)
			}
			sum += s
		}
		if sum > rc.cap*(1+1e-9) {
			t.Errorf("%v sizes sum %v exceed capacity %v", rc.r, sum, rc.cap)
		}
		// Too short to evaluate: no invented ticket counts.
		if rc.run.TicketsBefore != 0 || rc.run.TicketsAfter != 0 {
			t.Errorf("%v: evicted-window fallback invented tickets %d/%d",
				rc.r, rc.run.TicketsBefore, rc.run.TicketsAfter)
		}
	}

	// A fully evicted box (zero samples) floors every VM at minLimit.
	empty := *b
	empty.VMs = append([]trace.VM(nil), b.VMs...)
	for v := range empty.VMs {
		empty.VMs[v].CPU = empty.VMs[v].CPU.Slice(0, 0)
	}
	for v, s := range StingySizesInto(&empty, trace.CPU, cfg, nil) {
		if s != minLimit {
			t.Errorf("empty history vm %d: size %v, want minLimit %v", v, s, minLimit)
		}
	}
}

// TestDegradedOnGapWindow covers a monitoring gap inside the training
// window: the DTW search must refuse the NaN sample, and the box must
// fall back to the stingy plan rather than cluster on NaN distances —
// on the exact and the pruned search.
func TestDegradedOnGapWindow(t *testing.T) {
	b, spd := testBox(t, 11)
	b.VMs[0].CPU[spd/2] = math.NaN()
	for _, approx := range []bool{false, true} {
		cfg := fastConfig(spd)
		cfg.Degraded = true
		cfg.Spatial = spatial.Config{Method: spatial.MethodDTW, DTWApprox: approx}
		p, err := NewPipeline(spd, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.StepInto(context.Background(), b)
		if !errors.Is(err, cluster.ErrNonFinite) {
			t.Fatalf("approx=%v: err = %v, want ErrNonFinite", approx, err)
		}
		if res == nil || !res.Degraded || !errors.Is(res.FallbackErr, cluster.ErrNonFinite) {
			t.Fatalf("approx=%v: res = %+v, want the degraded fallback", approx, res)
		}
		if res.Prediction != nil {
			t.Errorf("approx=%v: gap window carries a prediction", approx)
		}
	}
}

// TestRunRollingDegradedGap: a monitoring gap that sits inside some
// windows' training history must not end a degraded rolling run.
// Exactly the steps whose training window covers the gap ship the
// flagged stingy fallback, every other step carries a forecast, and
// the causes come back joined; with Degraded off the first such step
// still aborts the run.
func TestRunRollingDegradedGap(t *testing.T) {
	b, spd := stationaryBox(t, 8) // 128 samples: T=32, H=16 → 6 steps
	const gap = 40
	b.VMs[0].CPU[gap] = math.NaN()
	cfg := fastConfig(spd)
	cfg.Spatial = spatial.Config{Method: spatial.MethodDTW}

	if res, err := rollSteps(t, b, spd, cfg); res != nil || !errors.Is(err, cluster.ErrNonFinite) {
		t.Fatalf("strict run: %d results, err = %v; want an ErrNonFinite abort", len(res), err)
	}

	cfg.Degraded = true
	results, err := rollSteps(t, b, spd, cfg)
	if !errors.Is(err, cluster.ErrNonFinite) {
		t.Fatalf("err = %v, want the joined ErrNonFinite causes", err)
	}
	if len(results) != 6 {
		t.Fatalf("steps = %d, want 6", len(results))
	}
	degraded := 0
	for k, r := range results {
		from := k * cfg.Horizon
		covers := from <= gap && gap < from+cfg.TrainWindows
		if r.Result.Degraded != covers {
			t.Errorf("step %d: degraded = %v, training window covers the gap = %v", k, r.Result.Degraded, covers)
		}
		if covers {
			degraded++
			if !errors.Is(r.Result.FallbackErr, cluster.ErrNonFinite) {
				t.Errorf("step %d: FallbackErr = %v, want ErrNonFinite", k, r.Result.FallbackErr)
			}
		} else if r.Result.Prediction == nil {
			t.Errorf("step %d: clean training window carries no forecast", k)
		}
	}
	if degraded != 2 {
		t.Fatalf("%d degraded steps, want 2 (the gap sits in two training windows)", degraded)
	}
}
