package engine

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/state"
	"atm/internal/trace"
)

// backendFixture builds a store + engine over a generated box with the
// given actuation wiring, replays the trace and returns the counting
// wrapper around the registry target.
func backendFixture(t *testing.T, mutate func(*Config)) (*actuator.Registry, *countingBackend, *Engine, *trace.Box) {
	t.Helper()
	b, spd := genBox(29)
	core := fastConfig(spd, false)
	st, err := state.NewStoreSharded(core.TrainWindows+2*core.Horizon, 1)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	reg := actuator.NewRegistry()
	cb := &countingBackend{Backend: reg}
	cfg := Config{Core: core, SamplesPerDay: spd, Backend: cb}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(st, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	replay(t, e, st, b)
	return reg, cb, e, b
}

// TestEngineBackendActuates wires an actuator.Backend into the engine
// and requires published plans to land in the target: the registry
// must hold exactly the latest plan's sizes.
func TestEngineBackendActuates(t *testing.T) {
	reg, cb, e, b := backendFixture(t, nil)
	if cb.writes.Load() == 0 {
		t.Fatal("backend saw no writes despite Config.Backend")
	}
	plan, ok := e.Plan(b.ID)
	if !ok {
		t.Fatal("no plan published")
	}
	snap := reg.Snapshot()
	if len(snap) != len(b.VMs) {
		t.Fatalf("registry holds %d cgroups, want %d", len(snap), len(b.VMs))
	}
	// ApplyBox floors actuated sizes at its minimum limit; mirror it.
	floor := func(x float64) float64 {
		if x < 1e-3 {
			return 1e-3
		}
		return x
	}
	for v := range b.VMs {
		l := snap[b.VMs[v].ID]
		if l.CPUGHz != floor(plan.CPUSizes[v]) || l.RAMGB != floor(plan.RAMSizes[v]) {
			t.Errorf("vm %s: registry (%v,%v) != plan (%v,%v)",
				b.VMs[v].ID, l.CPUGHz, l.RAMGB, plan.CPUSizes[v], plan.RAMSizes[v])
		}
	}
}

// TestEngineDryRunZeroWrites keeps the backend configured but flips
// DryRun: plans must still publish while the backend sees zero
// mutating calls — the engine-level proof behind `atmd -dry-run`.
func TestEngineDryRunZeroWrites(t *testing.T) {
	reg, cb, e, b := backendFixture(t, func(c *Config) { c.DryRun = true })
	if _, ok := e.Plan(b.ID); !ok {
		t.Fatal("dry-run engine published no plan")
	}
	if n := cb.writes.Load(); n != 0 {
		t.Fatalf("dry-run backend saw %d writes, want 0", n)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatal("dry-run engine mutated the registry")
	}
}

// TestEnginePolicyClamps interposes a policy config between engine and
// backend: every actuated CPU limit must respect the rail, proving the
// guard sits in front of the transactional apply path.
func TestEnginePolicyClamps(t *testing.T) {
	const maxCPU = 0.5
	pc := policy.Config{Rules: []policy.Rule{{Match: "*", MaxCPUGHz: maxCPU}}}
	reg, cb, e, b := backendFixture(t, func(c *Config) { c.Policy = &pc })
	if cb.writes.Load() == 0 {
		t.Fatal("no writes reached the backend")
	}
	for vm, l := range reg.Snapshot() {
		if l.CPUGHz > maxCPU {
			t.Errorf("vm %s: cpu %v exceeds policy max %v", vm, l.CPUGHz, maxCPU)
		}
	}
	if got, ok := e.PolicyConfig(); !ok || len(got.Rules) != 1 {
		t.Fatalf("PolicyConfig() = (%+v, %v), want the configured rails", got, ok)
	}
	if _, ok := e.Plan(b.ID); !ok {
		t.Fatal("no plan published")
	}
}

// TestEngineBackendConfigValidation pins the Config invariant: Policy
// needs Backend.
func TestEngineBackendConfigValidation(t *testing.T) {
	_, spd := genBox(31)
	core := fastConfig(spd, false)
	st, err := state.NewStoreSharded(core.TrainWindows+2*core.Horizon, 1)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, err := New(st, Config{Core: core, SamplesPerDay: spd, Policy: &policy.Config{}}); err == nil {
		t.Error("Policy without Backend accepted, want error")
	}
}

// TestEngineApplyErrorInLastErr: when the backend refuses every write
// the plan still publishes, and the box's last error — LastErr and the
// debug snapshot behind `atmcli inspect` — carries the actuation
// failure instead of the clean step's nil.
func TestEngineApplyErrorInLastErr(t *testing.T) {
	b, spd := genBox(29)
	core := fastConfig(spd, false)
	st, err := state.NewStoreSharded(core.TrainWindows+2*core.Horizon, 1)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	failing := &refusingBackend{Backend: actuator.NewRegistry()}
	e, err := New(st, Config{Core: core, SamplesPerDay: spd, Backend: failing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := st.Register(state.MetaOf(b)); err != nil {
		t.Fatalf("register: %v", err)
	}
	cpu := make([]float64, len(b.VMs))
	ram := make([]float64, len(b.VMs))
	for tick := 0; tick < e.Need(0); tick++ {
		for v := range b.VMs {
			cpu[v] = b.VMs[v].CPU[tick]
			ram[v] = b.VMs[v].RAM[tick]
		}
		if _, err := st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
			t.Fatalf("append tick %d: %v", tick, err)
		}
	}
	e.Sync(context.Background())

	if plan, ok := e.Plan(b.ID); !ok || plan.Step != 0 {
		t.Fatalf("plan = %+v, %v; want step 0 published despite the apply failure", plan, ok)
	}
	var aerr *actuator.Error
	if err := e.LastErr(b.ID); !errors.As(err, &aerr) {
		t.Fatalf("LastErr = %v, want the backend's *actuator.Error", err)
	}
	if dbg, ok := e.Debug(b.ID); !ok || !strings.Contains(dbg.LastErr, "injected failure") {
		t.Fatalf("debug last_err = %q, want the apply failure", dbg.LastErr)
	}
	if failing.refused.Load() == 0 {
		t.Fatal("backend never refused a write")
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

// refusingBackend fails every write with a transient 503 before it
// reaches the wrapped backend.
type refusingBackend struct {
	actuator.Backend
	refused atomic.Int64
}

func (r *refusingBackend) SetLimits(_ context.Context, id string, _ actuator.Limits) error {
	r.refused.Add(1)
	return &actuator.Error{Op: "set_limits", ID: id, Status: http.StatusServiceUnavailable,
		Err: errors.New("injected failure")}
}
