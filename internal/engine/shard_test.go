package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"atm/internal/state"
	"atm/internal/trace"
)

// replayFleet streams every box of the trace tick by tick into the
// store round-robin, running a full synchronous pass every `every`
// ticks (fewer than a horizon, so a pass fires at most one step per
// box) and once at the end. It returns every plan published, per box
// in step order.
func replayFleet(t *testing.T, e *Engine, st *state.Store, tr *trace.Trace, every int) map[string][]Plan {
	t.Helper()
	ctx := context.Background()
	plans := make(map[string][]Plan, len(tr.Boxes))
	pass := func() {
		e.Sync(ctx)
		for bi := range tr.Boxes {
			id := tr.Boxes[bi].ID
			plans[id] = collectPlan(t, e, id, plans[id])
		}
	}
	total := len(tr.Boxes[0].VMs[0].CPU)
	for bi := range tr.Boxes {
		if err := st.Register(state.MetaOf(&tr.Boxes[bi])); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	for tick := 0; tick < total; tick++ {
		for bi := range tr.Boxes {
			b := &tr.Boxes[bi]
			cpu := make([]float64, len(b.VMs))
			ram := make([]float64, len(b.VMs))
			for v := range b.VMs {
				cpu[v] = b.VMs[v].CPU[tick]
				ram[v] = b.VMs[v].RAM[tick]
			}
			if _, err := st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
				t.Fatalf("append %s tick %d: %v", b.ID, tick, err)
			}
		}
		if tick%every == 0 {
			pass()
		}
	}
	pass()
	return plans
}

// TestEngineShardEquivalence is the sharded-vs-single-store property
// test: the same append stream replayed through stores with different
// shard counts must produce bit-identical plans on every step of every
// box — sharding changes lock granularity and wake-up routing, never
// windows or plans.
func TestEngineShardEquivalence(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 5, Days: 5, SamplesPerDay: 32, Seed: 41, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	cfg := fastConfig(spd, true)

	type variant struct {
		name   string
		shards int
	}
	variants := []variant{
		{"single", 1},
		{"sharded-2", 2},
		{"sharded-7", 7},
		{"sharded-16", 16},
	}
	var ref map[string][]Plan
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			st, err := state.NewStoreSharded(len(tr.Boxes[0].VMs[0].CPU), v.shards)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(st, Config{Core: cfg, SamplesPerDay: spd})
			if err != nil {
				t.Fatal(err)
			}
			plans := replayFleet(t, e, st, tr, 3)
			for bi := range tr.Boxes {
				id := tr.Boxes[bi].ID
				if err := e.LastErr(id); err != nil {
					t.Fatalf("box %s: %v", id, err)
				}
				if e.Steps(id) == 0 {
					t.Fatalf("box %s: no steps fired", id)
				}
				if ref != nil {
					checkParity(t, ref[id], plans[id])
				}
			}
			if ref == nil {
				ref = plans
			}
		})
	}
}

// TestEngineDirtyPassInspectsOnlyDirty is the counter-based O(k)
// contract: with a fleet of F registered boxes, a scheduling pass
// after appends to k boxes inspects exactly those k boxes, and a pass
// with nothing dirty inspects none.
func TestEngineDirtyPassInspectsOnlyDirty(t *testing.T) {
	const fleet, dirty = 120, 4
	spd := 8
	cfg := fastConfig(spd, false)
	ctx := context.Background()

	st, err := state.NewStoreSharded(cfg.TrainWindows+2*cfg.Horizon, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleet; i++ {
		m := state.BoxMeta{ID: fmt.Sprintf("box-%03d", i), CPUCapGHz: 10, RAMCapGB: 64,
			VMs: []state.VMMeta{{ID: "v0", CPUCapGHz: 2, RAMCapGB: 8}}}
		if err := st.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	// Settle registration: one pass so a later pass is steady-state.
	e.Sync(ctx)

	for i := 0; i < dirty; i++ {
		id := fmt.Sprintf("box-%03d", i*7)
		if _, err := st.AppendBatch(id, [][]float64{{1}}, [][]float64{{2}}); err != nil {
			t.Fatal(err)
		}
	}
	before := inspectedBoxes.Value()
	e.Sync(ctx)
	if got := int(inspectedBoxes.Value() - before); got != dirty {
		t.Fatalf("dirty pass inspected %d boxes, want %d (fleet %d)", got, dirty, fleet)
	}
	// A pass with nothing dirty inspects nothing.
	before = inspectedBoxes.Value()
	e.Sync(ctx)
	if got := int(inspectedBoxes.Value() - before); got != 0 {
		t.Fatalf("idle pass inspected %d boxes, want 0", got)
	}
}

// TestEngineConcurrentSyncAndAppend races direct SyncShard calls from
// several goroutines against concurrent ingest — the dirty-set
// hand-off under the strictest interleaving, checked under -race. At
// the end (after a final quiescent pass) every box must have consumed
// its whole stream: a lost dirty mark would leave steps missing,
// because no Poll-based rescue exists for direct Sync calls.
func TestEngineConcurrentSyncAndAppend(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 4, Days: 4, SamplesPerDay: 32, Seed: 57, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	cfg := fastConfig(spd, true)
	total := len(tr.Boxes[0].VMs[0].CPU)
	st, err := state.NewStoreSharded(total, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, Config{Core: cfg, SamplesPerDay: spd})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range tr.Boxes {
		if err := st.Register(state.MetaOf(&tr.Boxes[bi])); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var syncers sync.WaitGroup
	for w := 0; w < 3; w++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Sync(ctx)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	var ingest sync.WaitGroup
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			cpu := make([]float64, len(b.VMs))
			ram := make([]float64, len(b.VMs))
			for tick := 0; tick < total; tick++ {
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
	ingest.Wait()
	close(stop)
	syncers.Wait()
	// One final pass: anything the concurrent passes raced past is
	// still flagged dirty and must surface now.
	e.Sync(ctx)
	want := (total - cfg.TrainWindows) / cfg.Horizon
	for bi := range tr.Boxes {
		id := tr.Boxes[bi].ID
		if got := e.Steps(id); got != want {
			t.Errorf("box %s: steps = %d, want %d (lost dirty mark?)", id, got, want)
		}
		if err := e.LastErr(id); err != nil {
			t.Errorf("box %s: %v", id, err)
		}
	}
}
