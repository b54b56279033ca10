package control

import (
	"math"
	"testing"

	"atm/internal/core"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// ctlConfig is the adaptive controller under test, with round numbers
// so the hysteresis arithmetic is checkable by hand.
func ctlConfig() Config {
	return Config{
		Enabled:     true,
		MAPEGood:    0.4,
		MAPEBad:     1.2,
		RecoverStep: 0.15,
		MinSamples:  2,
	}
}

func coreConfig() core.Config {
	return core.Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: 4} },
		TrainWindows: 8,
		Horizon:      4,
		Threshold:    0.6,
		Epsilon:      0.1,
		Degraded:     true,
	}
}

// blendBox is a train+horizon box: usage peaks at trainPct during
// training and sits at horizonPct over the evaluation horizon.
func blendBox(trainPct, horizonPct float64, vms int) *trace.Box {
	cfg := coreConfig()
	b := &trace.Box{ID: "box-1", CPUCapGHz: 12, RAMCapGB: 12}
	for v := 0; v < vms; v++ {
		u := make(timeseries.Series, cfg.TrainWindows+cfg.Horizon)
		for i := range u {
			if i < cfg.TrainWindows {
				u[i] = trainPct
			} else {
				u[i] = horizonPct
			}
		}
		b.VMs = append(b.VMs, trace.VM{
			ID: "vm", CPUCapGHz: 4, RAMCapGB: 4,
			CPU: u, RAM: append(timeseries.Series(nil), u...),
		})
	}
	return b
}

// planResult wraps plan sizes (one per VM, both resources) as a
// non-degraded BoxResult.
func planResult(b *trace.Box, size float64) *core.BoxResult {
	sizes := make([]float64, len(b.VMs))
	for i := range sizes {
		sizes[i] = size
	}
	return &core.BoxResult{
		Box:        b,
		Prediction: &core.BoxPrediction{MAPE: []float64{0.1, 0.1}},
		CPU:        &core.BoxRun{Resource: trace.CPU, Sizes: sizes},
		RAM:        &core.BoxRun{Resource: trace.RAM, Sizes: append([]float64(nil), sizes...)},
	}
}

func TestControllerFixed(t *testing.T) {
	c := New(1, Config{Enabled: true, Fixed: true, Lambda: 0.4})
	dec := c.Update("box-1", 0, Observation{StepMAPE: 5, HaveStep: true, SevereDrift: true})
	if dec.Lambda != 0.4 || dec.Reason != ReasonFixed {
		t.Fatalf("fixed decision = %+v, want λ=0.4 reason=fixed", dec)
	}
	if dec := c.Update("box-2", 0, Observation{}); dec.Lambda != 0.4 {
		t.Fatalf("fixed decision for a fresh box = %+v, want λ=0.4", dec)
	}
}

func TestControllerDropsFastRecoversSlowly(t *testing.T) {
	c := New(1, ctlConfig())

	// No signal yet: trust holds at its initial value.
	dec := c.Update("box-1", 0, Observation{})
	if dec.Lambda != 1 || dec.Reason != ReasonWarmup {
		t.Fatalf("warmup decision = %+v, want λ=1 warmup", dec)
	}

	// One catastrophic step collapses trust immediately, before the
	// rolling window has even filled.
	dec = c.Update("box-1", 0, Observation{StepMAPE: 2.0, HaveStep: true})
	if dec.Lambda != 0 || dec.Reason != ReasonTracking {
		t.Fatalf("post-blowup decision = %+v, want λ=0 tracking", dec)
	}

	// The next step is clean but recovery is rate-limited.
	dec = c.Update("box-1", 0, Observation{StepMAPE: 0.1, HaveStep: true, RollingMAPE: 2.0, RollingN: 1})
	if math.Abs(dec.Lambda-0.15) > 1e-12 || dec.Reason != ReasonRecovering {
		t.Fatalf("first recovery decision = %+v, want λ=0.15 recovering", dec)
	}

	// Once the rolling window is full enough it caps the target: with
	// rolling MAPE 1.05, target = (1.2-1.05)/(1.2-0.4) = 0.1875 < cur
	// + step, so recovery stalls at the target.
	dec = c.Update("box-1", 0, Observation{StepMAPE: 0.1, HaveStep: true, RollingMAPE: 1.05, RollingN: 2})
	if math.Abs(dec.Lambda-0.1875) > 1e-12 || dec.Reason != ReasonRecovering {
		t.Fatalf("capped recovery decision = %+v, want λ=0.1875 recovering", dec)
	}

	// Clean rolling error: full-rate recovery continues toward 1.
	dec = c.Update("box-1", 0, Observation{StepMAPE: 0.1, HaveStep: true, RollingMAPE: 0.2, RollingN: 5})
	if math.Abs(dec.Lambda-0.3375) > 1e-12 || dec.Reason != ReasonRecovering {
		t.Fatalf("recovery decision = %+v, want λ=0.3375 recovering", dec)
	}
}

func TestControllerFloorsOnHardSignals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		o      Observation
		reason string
	}{
		{"severe drift", Observation{StepMAPE: 0.05, HaveStep: true, SevereDrift: true}, ReasonSevereDrift},
		{"degraded", Observation{Degraded: true}, ReasonDegraded},
	} {
		c := New(1, ctlConfig())
		dec := c.Update("box-1", 0, tc.o)
		if dec.Lambda != 0 || dec.Reason != tc.reason {
			t.Fatalf("%s decision = %+v, want λ=0 %s", tc.name, dec, tc.reason)
		}
	}
}

func TestBlendMixesTowardStingy(t *testing.T) {
	cfg := coreConfig()
	box := blendBox(50, 75, 1) // stingy size 2.0, horizon demand 3.0
	c := New(1, ctlConfig())

	// λ ≥ 1 is an exact no-op: the plan must not be touched at all.
	res := planResult(box, 4)
	if c.Blend("box-1", 0, box, res, cfg, 1.0) {
		t.Fatal("Blend changed the plan at λ=1")
	}
	if res.CPU.Sizes[0] != 4 || res.CPU.TicketsAfter != 0 {
		t.Fatalf("λ=1 plan mutated: %+v", res.CPU)
	}

	// Degraded results are already the safe plan — never re-blended.
	res = planResult(box, 4)
	res.Degraded = true
	if c.Blend("box-1", 0, box, res, cfg, 0) {
		t.Fatal("Blend touched a degraded result")
	}

	// λ=0 ships pure stingy: peak train demand 50% of a 4-unit VM.
	res = planResult(box, 4)
	if !c.Blend("box-1", 0, box, res, cfg, 0) {
		t.Fatal("Blend reported no change at λ=0")
	}
	for _, run := range []*core.BoxRun{res.CPU, res.RAM} {
		if math.Abs(run.Sizes[0]-2.0) > 1e-12 {
			t.Fatalf("λ=0 size = %v, want stingy 2.0", run.Sizes[0])
		}
		// Horizon demand 3.0 > 0.6×2.0: every horizon window tickets.
		if run.TicketsAfter != cfg.Horizon {
			t.Fatalf("λ=0 tickets = %d, want %d", run.TicketsAfter, cfg.Horizon)
		}
	}

	// λ=0.5 is the convex midpoint, and the recount tracks the new
	// size: 3.0 demand vs 0.6×3.0 = 1.8 still tickets every window...
	res = planResult(box, 4)
	c.Blend("box-1", 0, box, res, cfg, 0.5)
	if math.Abs(res.CPU.Sizes[0]-3.0) > 1e-12 {
		t.Fatalf("λ=0.5 size = %v, want 3.0", res.CPU.Sizes[0])
	}
	// ...while λ=0.9 (size 3.8, limit 2.28) does not.
	res = planResult(box, 4)
	c.Blend("box-1", 0, box, res, cfg, 0.9)
	if math.Abs(res.CPU.Sizes[0]-3.8) > 1e-12 || res.CPU.TicketsAfter != cfg.Horizon {
		t.Fatalf("λ=0.9 = size %v / %d tickets, want 3.8 / %d", res.CPU.Sizes[0], res.CPU.TicketsAfter, cfg.Horizon)
	}
}

// TestBlendPreservesFeasibility: both endpoint plans fit the box, so
// every convex mix must too — for any λ the blended sizes sum to at
// most the box capacity.
func TestBlendPreservesFeasibility(t *testing.T) {
	cfg := coreConfig()
	box := blendBox(90, 50, 3) // stingy peaks 3×3.6 = 10.8 ≤ 12
	c := New(1, ctlConfig())
	for _, lambda := range []float64{0, 0.25, 0.5, 0.75} {
		res := planResult(box, 4) // plan saturates the box: 3×4 = 12
		c.Blend("box-1", 0, box, res, cfg, lambda)
		for _, run := range []*core.BoxRun{res.CPU, res.RAM} {
			var sum float64
			for _, s := range run.Sizes {
				sum += s
			}
			if sum > box.CPUCapGHz+1e-9 {
				t.Fatalf("λ=%v blended sizes sum %v exceed capacity %v", lambda, sum, box.CPUCapGHz)
			}
		}
	}
}

// TestControllerStepAllocFree pins the controller's engine-path cost:
// after a box's first blend, Update+Blend allocate nothing.
func TestControllerStepAllocFree(t *testing.T) {
	cfg := coreConfig()
	box := blendBox(50, 75, 2)
	c := New(2, ctlConfig())
	res := planResult(box, 4)
	o := Observation{StepMAPE: 0.8, HaveStep: true, RollingMAPE: 0.9, RollingN: 4}
	c.Update("box-1", 1, o)
	c.Blend("box-1", 1, box, res, cfg, 0.5)
	allocs := testing.AllocsPerRun(100, func() {
		dec := c.Update("box-1", 1, o)
		c.Blend("box-1", 1, box, res, cfg, dec.Lambda)
	})
	if allocs != 0 {
		t.Fatalf("controller step allocates %.1f objects/op, want 0", allocs)
	}
}
