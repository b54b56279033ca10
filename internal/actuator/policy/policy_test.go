package policy

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/actuator"
)

func TestParseValidation(t *testing.T) {
	good := `{"mode":"reject","rate_per_sec":5,"rules":[
		{"match":"wiki-*","min_cpu_ghz":0.5,"max_cpu_ghz":8,"max_step_ram_gb":2}]}`
	c, err := Parse([]byte(good))
	if err != nil {
		t.Fatalf("Parse(good): %v", err)
	}
	if c.Mode != ModeReject || len(c.Rules) != 1 || c.Rules[0].MaxStepRAMGB != 2 {
		t.Errorf("parsed config = %+v", c)
	}

	bad := []struct {
		name string
		in   string
	}{
		{"unknown_field", `{"rules":[{"match":"*","max_cpu_gz":4}]}`},
		{"bad_mode", `{"mode":"dry"}`},
		{"min_over_max", `{"rules":[{"match":"*","min_cpu_ghz":4,"max_cpu_ghz":2}]}`},
		{"negative_step", `{"rules":[{"match":"*","max_step_cpu_ghz":-1}]}`},
		{"negative_rate", `{"rate_per_sec":-1}`},
		{"syntax", `{`},
	}
	for _, tc := range bad {
		if _, err := Parse([]byte(tc.in)); err == nil {
			t.Errorf("Parse(%s) accepted %q", tc.name, tc.in)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	cfg := Config{Rules: []Rule{
		{Match: "wiki-one-mysql-1", MaxCPUGHz: 1},
		{Match: "wiki-one-*", MaxCPUGHz: 2},
		{Match: "*", MaxCPUGHz: 3},
	}}
	for id, wantMax := range map[string]float64{
		"wiki-one-mysql-1":  1, // exact beats prefix by order
		"wiki-one-apache-1": 2,
		"other-vm":          3,
	} {
		r, ok := cfg.RuleFor(id)
		if !ok || r.MaxCPUGHz != wantMax {
			t.Errorf("RuleFor(%q) = %+v, %v; want max %v", id, r, ok, wantMax)
		}
	}
}

func TestApplyClamps(t *testing.T) {
	cfg := Config{Rules: []Rule{{
		Match: "*", MinCPUGHz: 1, MaxCPUGHz: 4, MinRAMGB: 2, MaxRAMGB: 16,
		MaxStepCPUGHz: 1, MaxStepRAMGB: 4,
	}}}
	cur := &actuator.Limits{CPUGHz: 2, RAMGB: 8}

	// In-bounds, small step: untouched.
	got, v := cfg.Apply("vm", cur, actuator.Limits{CPUGHz: 2.5, RAMGB: 10})
	if len(v) != 0 || got.CPUGHz != 2.5 || got.RAMGB != 10 {
		t.Errorf("in-bounds write changed: %+v %v", got, v)
	}

	// Max rail then step rail: 9 GHz → max 4 → step caps at 2+1=3.
	got, v = cfg.Apply("vm", cur, actuator.Limits{CPUGHz: 9, RAMGB: 8})
	if got.CPUGHz != 3 {
		t.Errorf("cpu clamp = %v, want 3 (max then step)", got.CPUGHz)
	}
	kinds := map[string]bool{}
	for _, viol := range v {
		kinds[viol.Kind] = true
		if viol.Applied != 3 {
			t.Errorf("violation %+v: Applied should be the final value 3", viol)
		}
	}
	if !kinds["max"] || !kinds["step"] {
		t.Errorf("violations = %v, want max and step rails recorded", v)
	}

	// Min rail and downward step: 0.001 → min 1, current-step = 1 → 1.
	got, _ = cfg.Apply("vm", cur, actuator.Limits{CPUGHz: 0.001, RAMGB: 8})
	if got.CPUGHz != 1 {
		t.Errorf("cpu floor = %v, want 1", got.CPUGHz)
	}

	// Unknown current: step rail skipped, min/max still bind.
	got, v = cfg.Apply("vm", nil, actuator.Limits{CPUGHz: 9, RAMGB: 8})
	if got.CPUGHz != 4 {
		t.Errorf("no-baseline clamp = %v, want 4 (max only)", got.CPUGHz)
	}
	for _, viol := range v {
		if viol.Kind == "step" {
			t.Error("step rail fired without a baseline")
		}
	}

	// No matching rule: unconstrained.
	narrow := Config{Rules: []Rule{{Match: "other-*", MaxCPUGHz: 1}}}
	if got, v := narrow.Apply("vm", cur, actuator.Limits{CPUGHz: 99, RAMGB: 99}); len(v) != 0 || got.CPUGHz != 99 {
		t.Errorf("unmatched id constrained: %+v %v", got, v)
	}
}

func TestGuardClampMode(t *testing.T) {
	reg := actuator.NewRegistry()
	if err := reg.Set("vm-1", actuator.Limits{CPUGHz: 2, RAMGB: 8}); err != nil {
		t.Fatal(err)
	}
	g := NewGuard(reg, Config{Rules: []Rule{{Match: "*", MaxCPUGHz: 4, MaxStepCPUGHz: 1}}})
	ctx := context.Background()

	if err := g.SetLimits(ctx, "vm-1", actuator.Limits{CPUGHz: 9, RAMGB: 8}); err != nil {
		t.Fatalf("clamp-mode SetLimits: %v", err)
	}
	got, _ := reg.Get("vm-1")
	if got.CPUGHz != 3 {
		t.Errorf("written cpu = %v, want clamped 3", got.CPUGHz)
	}
}

func TestGuardRejectMode(t *testing.T) {
	reg := actuator.NewRegistry()
	if err := reg.Set("vm-1", actuator.Limits{CPUGHz: 2, RAMGB: 8}); err != nil {
		t.Fatal(err)
	}
	g := NewGuard(reg, Config{Mode: ModeReject, Rules: []Rule{{Match: "*", MaxCPUGHz: 4}}})
	ctx := context.Background()

	err := g.SetLimits(ctx, "vm-1", actuator.Limits{CPUGHz: 9, RAMGB: 8})
	if !errors.Is(err, actuator.ErrTerminal) {
		t.Fatalf("reject-mode err = %v, want terminal", err)
	}
	if !strings.Contains(err.Error(), "max rail") {
		t.Errorf("rejection should name the rail: %v", err)
	}
	got, _ := reg.Get("vm-1")
	if got.CPUGHz != 2 {
		t.Errorf("rejected write mutated the backend: %+v", got)
	}

	// A clean write still passes.
	if err := g.SetLimits(ctx, "vm-1", actuator.Limits{CPUGHz: 3, RAMGB: 8}); err != nil {
		t.Fatalf("in-bounds write: %v", err)
	}
}

func TestGuardStepAgainstNewGroup(t *testing.T) {
	// Creating a group (no baseline) under a step rule: the step rail
	// is skipped, the write lands.
	reg := actuator.NewRegistry()
	g := NewGuard(reg, Config{Rules: []Rule{{Match: "*", MaxStepCPUGHz: 0.5}}})
	if err := g.SetLimits(context.Background(), "new-vm", actuator.Limits{CPUGHz: 4, RAMGB: 8}); err != nil {
		t.Fatalf("create under step rule: %v", err)
	}
	got, err := reg.Get("new-vm")
	if err != nil || got.CPUGHz != 4 {
		t.Errorf("created limits = %+v, %v", got, err)
	}
}

func TestGuardRateLimit(t *testing.T) {
	reg := actuator.NewRegistry()
	g := NewGuard(reg, Config{RatePerSec: 1, Burst: 2})
	clock := time.Unix(0, 0)
	g.now = func() time.Time { return clock }
	ctx := context.Background()
	l := actuator.Limits{CPUGHz: 1, RAMGB: 1}

	// Burst of 2 passes, third is throttled with a transient 429.
	if err := g.SetLimits(ctx, "a", l); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := g.DeleteGroup(ctx, "a"); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	err := g.SetLimits(ctx, "b", l)
	if !errors.Is(err, actuator.ErrTransient) {
		t.Fatalf("throttled err = %v, want transient", err)
	}

	// Reads are never throttled.
	if _, err := g.GetLimits(ctx, "missing"); !errors.Is(err, actuator.ErrNotFound) {
		t.Errorf("read while drained = %v, want pass-through ErrNotFound", err)
	}

	// Tokens refill with time.
	clock = clock.Add(1500 * time.Millisecond)
	if err := g.SetLimits(ctx, "b", l); err != nil {
		t.Fatalf("write after refill: %v", err)
	}
}

func TestWhatIfPlan(t *testing.T) {
	reg := actuator.NewRegistry()
	if err := reg.Set("vm-1", actuator.Limits{CPUGHz: 2, RAMGB: 8}); err != nil {
		t.Fatal(err)
	}
	counting := &countingBackend{Backend: reg}
	cfg := Config{Rules: []Rule{{Match: "*", MaxCPUGHz: 4}}}

	plan := WhatIf(context.Background(), counting, cfg, "box-1",
		[]string{"vm-1", "vm-2"}, []float64{9, 0}, []float64{8, 2})

	if counting.writes.Load() != 0 {
		t.Fatalf("WhatIf issued %d writes, want 0", counting.writes.Load())
	}
	if counting.reads.Load() == 0 {
		t.Error("WhatIf never read current limits from a snapshot-capable backend")
	}
	if plan.Writes != 2 || plan.Rejects != 0 {
		t.Errorf("plan counts = %d writes %d rejects, want 2/0", plan.Writes, plan.Rejects)
	}
	if len(plan.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(plan.Rows))
	}

	r1 := plan.Rows[0]
	if r1.Action != ActionResize || r1.Current == nil || r1.Applied.CPUGHz != 4 {
		t.Errorf("vm-1 row = %+v, want resize clamped to 4", r1)
	}
	if len(r1.Violations) != 1 || r1.Violations[0].Kind != "max" {
		t.Errorf("vm-1 violations = %v, want one max rail", r1.Violations)
	}

	r2 := plan.Rows[1]
	if r2.Action != ActionCreate || r2.Current != nil {
		t.Errorf("vm-2 row = %+v, want create with no current", r2)
	}
	if r2.Target.CPUGHz != planMinLimit {
		t.Errorf("vm-2 target cpu = %v, want apply-path floor %v", r2.Target.CPUGHz, planMinLimit)
	}
}

func TestWhatIfRejects(t *testing.T) {
	// Reject mode flags rail crossings; a backend that cannot create
	// flags unknown groups.
	reg := actuator.NewRegistry()
	if err := reg.Set("vm-1", actuator.Limits{CPUGHz: 2, RAMGB: 8}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeReject, Rules: []Rule{{Match: "*", MaxCPUGHz: 4}}}
	plan := WhatIf(context.Background(), reg, cfg, "box-1",
		[]string{"vm-1"}, []float64{9}, []float64{8})
	if plan.Rejects != 1 || plan.Rows[0].Action != ActionReject || plan.Rows[0].Reason == "" {
		t.Errorf("reject-mode plan = %+v", plan)
	}
}

// countingBackend counts the reads and writes that reach the wrapped
// backend; a what-if pass over it must leave writes at zero.
type countingBackend struct {
	actuator.Backend
	reads, writes atomic.Int64
}

func (c *countingBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	c.writes.Add(1)
	return c.Backend.SetLimits(ctx, id, l)
}

func (c *countingBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	c.reads.Add(1)
	return c.Backend.GetLimits(ctx, id)
}

func (c *countingBackend) DeleteGroup(ctx context.Context, id string) error {
	c.writes.Add(1)
	return c.Backend.DeleteGroup(ctx, id)
}
