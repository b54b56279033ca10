package engine

import (
	"context"
	"testing"

	"atm/internal/core"
	"atm/internal/race"
	"atm/internal/state"
	"atm/internal/trace"
)

// TestEngineSyncAllocFree is the end-to-end zero-allocation gate: once
// the engine is warm, ingesting one horizon of samples and running a
// scheduling pass — window materialization, the full arena pipeline
// step, and plan publication — performs zero heap allocations. The
// store retains the whole stream so ring compaction (amortized, one
// array per Limit appends) stays out of the measured window, and the
// warm-up ingests the first half of it as one batch, which grows each
// ring (to twice what it holds) once for the whole stream.
func TestEngineSyncAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 24, SamplesPerDay: 16, Seed: 29, GapFraction: 1e-9,
	})
	b := &tr.Boxes[0]
	spd := tr.SamplesPerDay
	cfg := fastConfig(spd, false)
	cfg.Reuse = core.ReusePolicy{Enabled: true, MaxAge: 1 << 30, MAPEGrowth: 1e12}

	total := len(b.VMs[0].CPU)
	st, err := state.NewStoreSharded(total, 1)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := st.Register(state.MetaOf(b)); err != nil {
		t.Fatalf("register: %v", err)
	}

	ctx := context.Background()
	cpu := make([]float64, len(b.VMs))
	ram := make([]float64, len(b.VMs))
	cpuTick, ramTick := [][]float64{cpu}, [][]float64{ram}
	tick := 0
	ingest := func(n int) {
		for ; n > 0; n-- {
			for v := range b.VMs {
				cpu[v] = b.VMs[v].CPU[tick]
				ram[v] = b.VMs[v].RAM[tick]
			}
			if _, err := st.AppendBatch(b.ID, cpuTick, ramTick); err != nil {
				t.Fatalf("append tick %d: %v", tick, err)
			}
			tick++
		}
	}

	// Warm up: the research step and the first incremental rolls grow
	// the engine's scratch, the arena and the plan buffers.
	warm := 0
	for e.Need(warm) < total/2 {
		warm++
	}
	var cpuWarm, ramWarm [][]float64
	for ; tick < e.Need(warm); tick++ {
		c, r := make([]float64, len(b.VMs)), make([]float64, len(b.VMs))
		for v := range b.VMs {
			c[v], r[v] = b.VMs[v].CPU[tick], b.VMs[v].RAM[tick]
		}
		cpuWarm, ramWarm = append(cpuWarm, c), append(ramWarm, r)
	}
	if _, err := st.AppendBatch(b.ID, cpuWarm, ramWarm); err != nil {
		t.Fatalf("append warm-up: %v", err)
	}
	e.Sync(ctx)
	if got := e.Steps(b.ID); got != warm+1 {
		t.Fatalf("warm-up steps = %d, want %d", got, warm+1)
	}

	steps := (total - cfg.TrainWindows) / cfg.Horizon
	runs := steps - (warm + 1) // one horizon ingested + one step fired per run
	allocs := testing.AllocsPerRun(runs-1, func() {
		ingest(cfg.Horizon)
		e.Sync(ctx)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ingest+Sync allocates %v objects per pass, want 0", allocs)
	}
	if err := e.LastErr(b.ID); err != nil {
		t.Fatalf("engine error after gate: %v", err)
	}
	if got := e.Steps(b.ID); got != steps {
		t.Fatalf("steps after gate = %d, want %d", got, steps)
	}
	plan, ok := e.Plan(b.ID)
	if !ok {
		t.Fatal("no plan published")
	}
	if plan.Step != steps-1 {
		t.Fatalf("plan step = %d, want %d", plan.Step, steps-1)
	}
	if plan.Research {
		t.Fatal("steady-state step researched mid-gate")
	}
}
