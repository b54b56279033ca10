package score

import (
	"math"
	"testing"

	"atm/internal/core"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

func scoreConfig() core.Config {
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

// synthBox builds a 1-VM box whose usage sits at the given percent for
// train+horizon windows.
func synthBox(usagePct float64) *trace.Box {
	cfg := scoreConfig()
	n := cfg.TrainWindows + cfg.Horizon
	u := make(timeseries.Series, n)
	for i := range u {
		u[i] = usagePct
	}
	return &trace.Box{
		ID: "box-1", CPUCapGHz: 10, RAMCapGB: 10,
		VMs: []trace.VM{{ID: "vm-0", CPUCapGHz: 4, RAMCapGB: 4, CPU: u, RAM: append(timeseries.Series(nil), u...)}},
	}
}

func synthResult(b *trace.Box, mape float64) *core.BoxResult {
	cfg := scoreConfig()
	demand := make([]timeseries.Series, len(b.VMs)*trace.NumResources)
	for i := range demand {
		fc := make(timeseries.Series, cfg.Horizon)
		for j := range fc {
			fc[j] = 1.0 // 25% of the 4-unit VM: predicts zero tickets at size 4
		}
		demand[i] = fc
	}
	return &core.BoxResult{
		Box:        b,
		Prediction: &core.BoxPrediction{Demand: demand, MAPE: []float64{mape, mape}},
		CPU:        &core.BoxRun{Resource: trace.CPU, Sizes: []float64{4}, TicketsBefore: 3, TicketsAfter: 1},
		RAM:        &core.BoxRun{Resource: trace.RAM, Sizes: []float64{4}, TicketsBefore: 2, TicketsAfter: 0},
	}
}

func TestBoardObserveScoresStep(t *testing.T) {
	b := NewBoard(4, scoreConfig())
	box := synthBox(25) // demand = 1.0 units on a 4-unit VM
	b.Observe("box-1", 2, synthResult(box, 0.10))
	b.Observe("box-1", 2, synthResult(box, 0.20))

	card, ok := b.Snapshot("box-1")
	if !ok {
		t.Fatal("no scorecard for observed box")
	}
	if card.Steps != 2 || card.DegradedSteps != 0 {
		t.Fatalf("steps = %d/%d, want 2/0", card.Steps, card.DegradedSteps)
	}
	if card.Shard != 2 {
		t.Fatalf("shard = %d, want 2", card.Shard)
	}
	if card.LastMAPE != 0.20 {
		t.Fatalf("last MAPE = %v, want 0.20", card.LastMAPE)
	}
	if math.Abs(card.RollingMAPE-0.15) > 1e-12 || card.RollingN != 2 {
		t.Fatalf("rolling MAPE = %v over %d, want 0.15 over 2", card.RollingMAPE, card.RollingN)
	}
	// Realized tickets: (1+0) per step, two steps.
	if card.TicketsRealized != 2 {
		t.Fatalf("realized tickets = %d, want 2", card.TicketsRealized)
	}
	// Predicted demand 1.0 vs limit 0.6*4=2.4: zero predicted tickets.
	if card.TicketsPredicted != 0 {
		t.Fatalf("predicted tickets = %d, want 0", card.TicketsPredicted)
	}
	// Realized demand 1.0 vs size 4 on both resources: over = 3 units
	// per window per resource = 6 per window; averaged over the horizon
	// that is 6 per step.
	if math.Abs(card.LastOverUnits-6) > 1e-9 {
		t.Fatalf("last over-provision = %v, want 6", card.LastOverUnits)
	}
	if card.LastUnderUnits != 0 {
		t.Fatalf("last under-provision = %v, want 0", card.LastUnderUnits)
	}
	if math.Abs(card.OverUnits-12) > 1e-9 {
		t.Fatalf("cumulative over-provision = %v, want 12", card.OverUnits)
	}
}

func TestBoardDegradedStepsDoNotScore(t *testing.T) {
	b := NewBoard(1, scoreConfig())
	box := synthBox(25)
	b.Observe("box-1", 0, &core.BoxResult{
		Box:      box,
		Degraded: true,
		CPU:      &core.BoxRun{Sizes: []float64{4}, TicketsAfter: 5},
		RAM:      &core.BoxRun{Sizes: []float64{4}, TicketsAfter: 2},
	})
	card, ok := b.Snapshot("box-1")
	if !ok {
		t.Fatal("no scorecard")
	}
	if card.Steps != 0 || card.DegradedSteps != 1 {
		t.Fatalf("steps = %d/%d, want 0 scored / 1 degraded", card.Steps, card.DegradedSteps)
	}
	// Realized tickets still count — the fallback plan is live.
	if card.TicketsRealized != 7 {
		t.Fatalf("realized tickets = %d, want 7", card.TicketsRealized)
	}
	if card.RollingN != 0 || card.LastMAPE != 0 {
		t.Fatalf("degraded step leaked MAPE: %+v", card)
	}
}

func TestBoardUnderProvision(t *testing.T) {
	b := NewBoard(1, scoreConfig())
	box := synthBox(100) // demand = 4.0 units
	res := synthResult(box, 0.1)
	res.CPU.Sizes = []float64{3} // 1 unit short on CPU
	b.Observe("box-1", 0, res)
	card, _ := b.Snapshot("box-1")
	// CPU: demand 4 vs size 3 → under 1/window; RAM: demand 4 vs size 4
	// → exactly met. Averaged over the horizon: 1 unit under.
	if math.Abs(card.LastUnderUnits-1) > 1e-9 {
		t.Fatalf("under-provision = %v, want 1", card.LastUnderUnits)
	}
	if card.LastOverUnits != 0 {
		t.Fatalf("over-provision = %v, want 0", card.LastOverUnits)
	}
}

func TestBoardSnapshotUnknownBox(t *testing.T) {
	b := NewBoard(2, scoreConfig())
	if _, ok := b.Snapshot("ghost"); ok {
		t.Fatal("snapshot of never-observed box reported ok")
	}
}

func TestBoardObserveAllocFree(t *testing.T) {
	b := NewBoard(1, scoreConfig())
	box := synthBox(50)
	res := synthResult(box, 0.1)
	b.Observe("box-1", 0, res) // warm-up: creates the card
	allocs := testing.AllocsPerRun(100, func() {
		b.Observe("box-1", 0, res)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f objects/op, want 0", allocs)
	}
}
