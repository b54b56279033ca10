package engine

import (
	"context"
	"runtime"
	"testing"

	"atm/internal/core"
	"atm/internal/predict"
	"atm/internal/race"
	"atm/internal/spatial"
	"atm/internal/state"
	"atm/internal/trace"
)

// retainedPerBoxBound is the heap a stepped box may keep between steps:
// its rings, pipeline and plan. A box of the shape below keeps about
// 111 KB (go1.24, amd64). Rings preallocated at twice the retention
// limit, a per-box LB_Keogh envelope cache and per-box resize scratch
// made it about 288 KB.
const retainedPerBoxBound = 160 << 10

// TestEngineRetainedHeapPerBox bounds what a fleet keeps resident per
// box once every box has stepped to steady state: approximate-DTW search
// with reuse (so searches and refits both ran), history at twice the
// training-plus-horizon window like the daemon's default, and the rings
// part full, as they are until a box has run that long. The heap is
// measured after runtime.GC (twice, so the shared pools are emptied
// too) against the heap before the store was built.
func TestEngineRetainedHeapPerBox(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const boxes, spd = 48, 24
	tr := trace.Generate(trace.GenConfig{
		Boxes: boxes, Days: 9, SamplesPerDay: spd, Seed: 41, GapFraction: 1e-9,
	})
	cfg := core.Config{
		Spatial:      spatial.Config{Method: spatial.MethodDTW, DTWApprox: true},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 4 * spd,
		Horizon:      spd,
		Threshold:    0.6,
		Epsilon:      0.1,
		Reuse:        core.ReusePolicy{Enabled: true, MaxAge: 2},
	}
	vms := 0
	for i := range tr.Boxes {
		vms += len(tr.Boxes[i].VMs)
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	st, err := state.NewStoreSharded(2*(cfg.TrainWindows+cfg.Horizon), 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Boxes {
		if err := st.Register(state.MetaOf(&tr.Boxes[i])); err != nil {
			t.Fatal(err)
		}
	}
	// One horizon per batch, the whole fleet per round, a pass after
	// each round: four steps per box.
	ctx := context.Background()
	total := e.Need(3)
	for tick := 0; tick < total; tick += cfg.Horizon {
		for i := range tr.Boxes {
			b := &tr.Boxes[i]
			var cpu, ram [][]float64
			for k := tick; k < tick+cfg.Horizon; k++ {
				c, r := make([]float64, len(b.VMs)), make([]float64, len(b.VMs))
				for v := range b.VMs {
					c[v], r[v] = b.VMs[v].CPU[k], b.VMs[v].RAM[k]
				}
				cpu, ram = append(cpu, c), append(ram, r)
			}
			if _, err := st.AppendBatch(b.ID, cpu, ram); err != nil {
				t.Fatal(err)
			}
		}
		e.Sync(ctx)
	}
	for i := range tr.Boxes {
		if got := e.Steps(tr.Boxes[i].ID); got != 4 {
			t.Fatalf("box %s stepped %d times, want 4", tr.Boxes[i].ID, got)
		}
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perBox := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / boxes
	runtime.KeepAlive(e)
	runtime.KeepAlive(tr)
	t.Logf("retained heap: %d bytes per box (%d VMs on average)", perBox, vms/boxes)
	if perBox > retainedPerBoxBound {
		t.Fatalf("retained heap %d bytes per box, bound %d", perBox, retainedPerBoxBound)
	}
}
