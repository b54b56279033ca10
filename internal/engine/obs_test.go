package engine

import (
	"testing"

	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/state"
)

// TestEngineDecisionObservability replays one box with tracing and
// the event bus attached and checks the whole decision-quality plane:
// a plan event per step with a typed reason, the plan carrying the
// trace id of a span tree in the exporter, the debug snapshot, and the
// forecast scorecard.
func TestEngineDecisionObservability(t *testing.T) {
	b, spd := genBox(11)
	st, err := state.NewStoreSharded(len(b.VMs[0].CPU), 4)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingExporter(4096)
	events := obs.NewEventLog(256)
	e, err := New(st, Config{
		Core:          fastConfig(spd, true),
		SamplesPerDay: spd,
		Workers:       1,
		Tracer:        obs.NewTracer(ring),
		Events:        events,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay(t, e, st, b)

	steps := e.Steps(b.ID)
	if steps == 0 {
		t.Fatal("no steps fired")
	}

	// One plan event per fired step, each with a typed reason.
	planEvents := 0
	for _, ev := range events.Tail(0, b.ID) {
		if ev.Type != "plan" {
			continue
		}
		planEvents++
		if ev.Reason == "" {
			t.Fatalf("plan event without a reason: %+v", ev)
		}
		if ev.Step == 0 && ev.Reason != core.ReasonColdStart {
			t.Fatalf("first step reason = %q, want %q", ev.Reason, core.ReasonColdStart)
		}
		if ev.TraceID == "" {
			t.Fatalf("plan event without a trace id: %+v", ev)
		}
		if ev.DeltaVMs < 0 || ev.DeltaVMs > len(b.VMs) {
			t.Fatalf("delta VMs = %d with %d VMs", ev.DeltaVMs, len(b.VMs))
		}
	}
	if planEvents != steps {
		t.Fatalf("%d plan events for %d steps", planEvents, steps)
	}

	// The published plan links to a recorded span tree.
	plan, ok := e.Plan(b.ID)
	if !ok {
		t.Fatal("no published plan")
	}
	if plan.TraceID == "" {
		t.Fatal("plan has no trace id")
	}
	spans := ring.Trace(plan.TraceID)
	if len(spans) == 0 {
		t.Fatalf("no spans recorded for trace %s", plan.TraceID)
	}
	foundStep := false
	for _, s := range spans {
		if s.Name == "engine.step" {
			foundStep = true
		}
	}
	if !foundStep {
		t.Fatalf("trace %s has no engine.step span (%d spans)", plan.TraceID, len(spans))
	}
	if plan.Reason == "" {
		t.Fatal("plan has no decision reason")
	}

	// Debug snapshot agrees with the published state.
	dbg, ok := e.Debug(b.ID)
	if !ok {
		t.Fatal("no debug snapshot")
	}
	if dbg.Steps != steps || dbg.Plan == nil || dbg.Plan.TraceID != plan.TraceID {
		t.Fatalf("debug snapshot mismatch: %+v", dbg)
	}
	if dbg.Decision.Reason != plan.Reason || dbg.Decision.Research != plan.Research {
		t.Fatalf("debug decision %+v vs plan (%v, %q)", dbg.Decision, plan.Research, plan.Reason)
	}

	// The scorecard tracked every step.
	card, ok := e.Scores().Snapshot(b.ID)
	if !ok {
		t.Fatal("no scorecard")
	}
	if card.Steps+card.DegradedSteps != steps {
		t.Fatalf("scorecard covers %d+%d steps, engine fired %d",
			card.Steps, card.DegradedSteps, steps)
	}
	if card.Steps > 0 && card.RollingN == 0 {
		t.Fatalf("scored steps without a rolling MAPE: %+v", card)
	}
}

// TestEngineDebugUnknownBox: Debug on a never-seen box reports false.
func TestEngineDebugUnknownBox(t *testing.T) {
	b, spd := genBox(3)
	st, err := state.NewStoreSharded(len(b.VMs[0].CPU), 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, Config{Core: fastConfig(spd, false), SamplesPerDay: spd})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Debug("ghost"); ok {
		t.Fatal("debug of unknown box reported ok")
	}
	if e.RunningShards() != 0 {
		t.Fatalf("RunningShards = %d before Run", e.RunningShards())
	}
}
