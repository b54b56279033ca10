package engine

import (
	"testing"

	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/state"
	"atm/internal/trace"
)

// TestEngineControlParity is the tentpole's consistency guarantee at
// the engine layer: a controller pinned at full trust (λ=1) publishes
// bit-identical plans to a controller-free engine — same sizes,
// tickets and errors on every step. Blending is strictly opt-in.
func TestEngineControlParity(t *testing.T) {
	b, spd := genBox(13)
	cfg := fastConfig(spd, true)

	run := func(ctl control.Config) (*Engine, []Plan) {
		st, err := state.NewStoreSharded(cfg.TrainWindows+2*cfg.Horizon, 2)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		e, err := New(st, Config{Core: cfg, SamplesPerDay: spd, Control: ctl})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return e, replay(t, e, st, b)
	}

	off, offPlans := run(control.Config{})
	pinned, pinnedPlans := run(control.Config{Enabled: true, Fixed: true, Lambda: 1})
	checkParity(t, offPlans, pinnedPlans)

	offPlan, _ := off.Plan(b.ID)
	if offPlan.Lambda != 0 || offPlan.BlendReason != "" {
		t.Fatalf("control-off plan carries λ=%v reason=%q", offPlan.Lambda, offPlan.BlendReason)
	}
	pinnedPlan, _ := pinned.Plan(b.ID)
	if pinnedPlan.Lambda != 1 || pinnedPlan.BlendReason != control.ReasonFixed {
		t.Fatalf("pinned plan λ=%v reason=%q, want 1/fixed", pinnedPlan.Lambda, pinnedPlan.BlendReason)
	}
}

// TestEngineControlBlends: with trust pinned at λ=0 the engine
// publishes the stingy safe allocation, the plan and its decision
// event carry the trust, and the debug snapshot exposes both.
func TestEngineControlBlends(t *testing.T) {
	b, spd := genBox(17)
	cfg := fastConfig(spd, false)
	st, err := state.NewStoreSharded(cfg.TrainWindows+2*cfg.Horizon, 1)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	events := obs.NewEventLog(64)
	e, err := New(st, Config{
		Core: cfg, SamplesPerDay: spd, Events: events,
		Control: control.Config{Enabled: true, Fixed: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	replay(t, e, st, b)

	plan, ok := e.Plan(b.ID)
	if !ok {
		t.Fatal("no plan published")
	}
	if plan.Lambda != 0 || plan.BlendReason != control.ReasonFixed {
		t.Fatalf("plan λ=%v reason=%q, want 0/fixed", plan.Lambda, plan.BlendReason)
	}
	// λ=0 ships the stingy allocation of the plan's window: every VM at
	// its training-peak demand (modulo the proportional capacity fit).
	from := plan.Step * cfg.Horizon
	wb := &trace.Box{}
	if err := st.WindowInto(b.ID, from, cfg.TrainWindows+(plan.Step+1)*cfg.Horizon, wb); err != nil {
		t.Fatalf("window: %v", err)
	}
	for r, want := range [][]float64{
		core.StingySizesInto(wb, 0, cfg, nil),
		core.StingySizesInto(wb, 1, cfg, nil),
	} {
		got := plan.CPUSizes
		if r == 1 {
			got = plan.RAMSizes
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("resource %d vm %d: λ=0 size %v, want stingy %v", r, v, got[v], want[v])
			}
		}
	}

	found := false
	for _, ev := range events.Tail(64, b.ID) {
		if ev.Type == "plan" {
			found = true
			if ev.Lambda != 0 || ev.BlendReason != control.ReasonFixed {
				t.Fatalf("plan event λ=%v reason=%q, want 0/fixed", ev.Lambda, ev.BlendReason)
			}
		}
	}
	if !found {
		t.Fatal("no plan event published")
	}

	dbg, ok := e.Debug(b.ID)
	if !ok || dbg.Plan == nil {
		t.Fatal("no debug snapshot")
	}
	if dbg.Plan.BlendReason != control.ReasonFixed {
		t.Fatalf("debug plan reason = %q, want fixed", dbg.Plan.BlendReason)
	}
}
