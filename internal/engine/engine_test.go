package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/state"
	"atm/internal/trace"
)

func fastConfig(spd int, reuse bool) core.Config {
	cfg := core.Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 2 * spd,
		Horizon:      spd,
		Threshold:    0.6,
		Epsilon:      0.1,
	}
	if reuse {
		cfg.Reuse = core.ReusePolicy{Enabled: true}
	}
	return cfg
}

func genBox(seed int64) (*trace.Box, int) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 5, SamplesPerDay: 32, Seed: seed, GapFraction: 1e-9,
	})
	return &tr.Boxes[0], tr.SamplesPerDay
}

// collectPlan appends the plan of the step the last pass fired for the
// box, if it fired one. Callers poll after every pass, so a box is at
// most one step ahead of its log.
func collectPlan(t *testing.T, e *Engine, id string, plans []Plan) []Plan {
	t.Helper()
	steps := e.Steps(id)
	if steps == len(plans) {
		return plans
	}
	p, ok := e.Plan(id)
	if !ok || steps != len(plans)+1 || p.Step != len(plans) {
		t.Fatalf("box %s: %d steps fired, %d plans seen, current plan %+v", id, steps, len(plans), p)
	}
	return append(plans, p)
}

// replay streams the box tick by tick into the store, running a
// synchronous engine pass after every tick — the strictest interleaving
// of ingest and planning — and returns every plan the engine published,
// in step order.
func replay(t *testing.T, e *Engine, st *state.Store, b *trace.Box) []Plan {
	t.Helper()
	if err := st.Register(state.MetaOf(b)); err != nil {
		t.Fatalf("register: %v", err)
	}
	total := len(b.VMs[0].CPU)
	cpu := make([]float64, len(b.VMs))
	ram := make([]float64, len(b.VMs))
	ctx := context.Background()
	var plans []Plan
	for tick := 0; tick < total; tick++ {
		for v := range b.VMs {
			cpu[v] = b.VMs[v].CPU[tick]
			ram[v] = b.VMs[v].RAM[tick]
		}
		if _, err := st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
			t.Fatalf("append tick %d: %v", tick, err)
		}
		e.Sync(ctx)
		plans = collectPlan(t, e, b.ID, plans)
	}
	if err := e.LastErr(b.ID); err != nil {
		t.Fatalf("engine error after replay: %v", err)
	}
	return plans
}

// batchPlans flattens the oracle's rolling results the way the engine
// publishes them, so oracle and stream compare plan against plan.
func batchPlans(id string, batch []oracleStep) []Plan {
	plans := make([]Plan, len(batch))
	for i, r := range batch {
		planInto(&plans[i], id, i, r.Result, core.Decision{Research: r.Research}, 0, 0, "")
	}
	return plans
}

// checkParity requires two per-step plan sequences to be bit-identical:
// same steps, same research decisions, same sizes, tickets and errors.
// Float comparisons are exact (==) on purpose — both sides run the same
// windows through the same pipeline step, so any drift is a real
// divergence.
func checkParity(t *testing.T, want, got []Plan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("steps = %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Step != w.Step || g.Research != w.Research {
			t.Fatalf("step %d: got (step=%d research=%v), want (step=%d research=%v)",
				i, g.Step, g.Research, w.Step, w.Research)
		}
		if g.Degraded != w.Degraded {
			t.Fatalf("step %d: degraded mismatch", i)
		}
		if g.TicketsBefore != w.TicketsBefore || g.TicketsAfter != w.TicketsAfter {
			t.Fatalf("step %d: tickets (%d,%d), want (%d,%d)", i,
				g.TicketsBefore, g.TicketsAfter, w.TicketsBefore, w.TicketsAfter)
		}
		for _, sizes := range []struct {
			name      string
			want, got []float64
		}{{"cpu", w.CPUSizes, g.CPUSizes}, {"ram", w.RAMSizes, g.RAMSizes}} {
			if len(sizes.want) != len(sizes.got) {
				t.Fatalf("step %d %s: size counts differ", i, sizes.name)
			}
			for v := range sizes.want {
				if sizes.want[v] != sizes.got[v] {
					t.Fatalf("step %d %s vm %d: size %v != %v", i, sizes.name, v, sizes.got[v], sizes.want[v])
				}
			}
		}
		if g.MeanMAPE != w.MeanMAPE {
			t.Fatalf("step %d: MAPE %v != %v", i, g.MeanMAPE, w.MeanMAPE)
		}
	}
}

// TestEngineBatchParity replays a trace sample-by-sample through the
// streaming engine and requires every published plan — sizes, tickets,
// mean MAPE, research flag — to be bit-identical to the reference
// rolling run (rollOracle) over the same trace, with model reuse both
// disabled and enabled (where both sides roll the retained model
// incrementally).
func TestEngineBatchParity(t *testing.T) {
	for _, tc := range []struct {
		reuse  bool
		shards int
	}{{false, 1}, {true, 1}, {false, 4}, {true, 4}} {
		t.Run(fmt.Sprintf("reuse=%v/shards=%d", tc.reuse, tc.shards), func(t *testing.T) {
			b, spd := genBox(13)
			cfg := fastConfig(spd, tc.reuse)
			batch, err := rollOracle(b, spd, cfg)
			if err != nil {
				t.Fatalf("rollOracle: %v", err)
			}

			st, err := state.NewStoreSharded(cfg.TrainWindows+2*cfg.Horizon, tc.shards)
			if err != nil {
				t.Fatalf("NewStore: %v", err)
			}
			e, err := New(st, Config{Core: cfg, SamplesPerDay: spd})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			checkParity(t, batchPlans(b.ID, batch), replay(t, e, st, b))
		})
	}
}

// TestEngineCatchUp ingests the full trace first and runs a single
// Sync: the engine must catch the box up through every pending step in
// one pass.
func TestEngineCatchUp(t *testing.T) {
	b, spd := genBox(17)
	cfg := fastConfig(spd, false)
	st, _ := state.NewStoreSharded(len(b.VMs[0].CPU), 1) // retain everything
	if err := st.Register(state.MetaOf(b)); err != nil {
		t.Fatal(err)
	}
	cpu := make([]float64, len(b.VMs))
	ram := make([]float64, len(b.VMs))
	for tick := 0; tick < len(b.VMs[0].CPU); tick++ {
		for v := range b.VMs {
			cpu[v] = b.VMs[v].CPU[tick]
			ram[v] = b.VMs[v].RAM[tick]
		}
		if _, err := st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd})
	if err != nil {
		t.Fatal(err)
	}
	e.Sync(context.Background())
	wantSteps := (len(b.VMs[0].CPU) - cfg.TrainWindows) / cfg.Horizon
	if got := e.Steps(b.ID); got != wantSteps {
		t.Fatalf("steps after one Sync = %d, want %d", got, wantSteps)
	}
}

// TestEngineConfigErrors covers constructor validation.
func TestEngineConfigErrors(t *testing.T) {
	_, spd := genBox(1)
	cfg := fastConfig(spd, false)
	if _, err := New(nil, Config{Core: cfg, SamplesPerDay: spd}); err == nil {
		t.Error("nil store accepted")
	}
	st, _ := state.NewStoreSharded(8, 1) // too small for train+horizon
	if _, err := New(st, Config{Core: cfg, SamplesPerDay: spd}); err == nil {
		t.Error("undersized store accepted")
	}
	big, _ := state.NewStoreSharded(cfg.TrainWindows+cfg.Horizon, 1)
	bad := cfg
	bad.Horizon = 0
	if _, err := New(big, Config{Core: bad, SamplesPerDay: spd}); err == nil {
		t.Error("bad core config accepted")
	}
}

// TestEngineSoak runs the engine loop live (Run in a goroutine) while
// several goroutines ingest concurrently into multiple boxes —
// exercised under -race by the CI race scope. It checks the engine
// drains in-flight work on cancellation and that every box ends with
// a published plan.
func TestEngineSoak(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 3, Days: 5, SamplesPerDay: 32, Seed: 23, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	cfg := fastConfig(spd, true)
	// Sharded store: the soak exercises one scheduler loop per shard
	// racing the concurrent ingesters, under -race in CI.
	st, err := state.NewStoreSharded(cfg.TrainWindows+4*cfg.Horizon, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx) }()

	var wg sync.WaitGroup
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		if err := st.Register(state.MetaOf(b)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu := make([]float64, len(b.VMs))
			ram := make([]float64, len(b.VMs))
			for tick := 0; tick < len(b.VMs[0].CPU); tick++ {
				for v := range b.VMs {
					cpu[v] = b.VMs[v].CPU[tick]
					ram[v] = b.VMs[v].RAM[tick]
				}
				if _, err := st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
					t.Errorf("append %s: %v", b.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Let the engine consume the backlog, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for bi := range tr.Boxes {
			b := &tr.Boxes[bi]
			want := (len(b.VMs[0].CPU) - cfg.TrainWindows) / cfg.Horizon
			if e.Steps(b.ID) < want {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		if _, ok := e.Plan(b.ID); !ok {
			t.Errorf("box %s: no plan after soak", b.ID)
		}
		want := (len(b.VMs[0].CPU) - cfg.TrainWindows) / cfg.Horizon
		if got := e.Steps(b.ID); got != want {
			t.Errorf("box %s: steps = %d, want %d", b.ID, got, want)
		}
	}
}
