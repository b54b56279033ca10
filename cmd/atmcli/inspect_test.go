package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/score"
	"atm/internal/serve"
)

// TestPrintDebugRendersFullStory feeds printDebug a canned debug
// payload and checks every section — plan, decision, scorecard,
// events, span tree — lands in the report with the right nesting.
func TestPrintDebugRendersFullStory(t *testing.T) {
	ts := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	dbg := serve.DebugResponse{
		BoxDebug: engine.BoxDebug{
			Box:   "box-0001",
			Shard: 2,
			Steps: 3,
			State: "queued",
			Plan: &engine.Plan{
				Box: "box-0001", Step: 2, Pass: 7,
				CPUSizes: []float64{4, 2}, RAMSizes: []float64{8, 4},
				TicketsBefore: 9, TicketsAfter: 1, MeanMAPE: 0.12,
				Research: false, Reason: "refit", TraceID: "t1",
				Lambda: 0.45, BlendReason: "recovering",
			},
			Decision: core.Decision{Research: false, Reason: core.ReasonRefit, Age: 1},
		},
		Scorecard: &score.Card{
			Box: "box-0001", Steps: 3, LastMAPE: 0.12, RollingMAPE: 0.1,
			RollingN: 3, TicketsPredicted: 2, TicketsRealized: 4,
			LastOverUnits: 1.5, LastUnderUnits: 0.5,
		},
		Events: []obs.Event{
			{Time: ts, Type: "plan", Box: "box-0001", Step: 2, Shard: 2,
				Reason: "refit", TicketsBefore: 9, TicketsAfter: 1, DeltaVMs: 1,
				Lambda: 0.45, BlendReason: "recovering"},
		},
		Spans: []obs.SpanData{
			{TraceID: "t1", SpanID: "s2", ParentID: "s1", Name: "engine.step",
				Start: ts.Add(time.Millisecond), DurationNS: 2e6},
			{TraceID: "t1", SpanID: "s1", Name: "serve.ingest",
				Start: ts, DurationNS: 5e6},
		},
	}
	var buf bytes.Buffer
	printDebug(&buf, &dbg)
	out := buf.String()

	for _, want := range []string{
		"box box-0001 (shard 2): 3 steps, queued",
		"plan (step 2, pass 7)",
		"tickets 9 -> 1",
		"decision: refit",
		"trust: λ=0.45 (recovering)",
		"trace: t1",
		"forecast scorecard",
		"tickets predicted 2 realized 4",
		"recent events",
		"(tickets 9->1, Δ1 VMs) λ=0.45/recovering",
		"span tree",
		"serve.ingest",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The child span is indented under its root.
	if !strings.Contains(out, "    engine.step") {
		t.Errorf("engine.step not nested under serve.ingest:\n%s", out)
	}
	ingestAt := strings.Index(out, "serve.ingest")
	stepAt := strings.Index(out, "engine.step")
	if ingestAt > stepAt {
		t.Errorf("root span printed after its child:\n%s", out)
	}
}

// TestPrintDebugEmptyBox covers a registered-but-unstepped box: no
// plan, no scorecard, no spans.
func TestPrintDebugEmptyBox(t *testing.T) {
	var buf bytes.Buffer
	printDebug(&buf, &serve.DebugResponse{
		BoxDebug: engine.BoxDebug{Box: "b9", Shard: 1},
	})
	out := buf.String()
	if !strings.Contains(out, "no plan yet") {
		t.Errorf("empty box report missing placeholder:\n%s", out)
	}
	if strings.Contains(out, "span tree") || strings.Contains(out, "scorecard") {
		t.Errorf("empty box report has phantom sections:\n%s", out)
	}
}
