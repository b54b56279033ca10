// Package conformance is the backend contract, executable: one suite
// of transactional, capability and chaos scenarios that every
// actuator.Backend implementation must pass identically. The layers
// above the Backend interface — core.ApplyBox's snapshot/rollback, the
// resilience retry/breaker decorators, the policy what-if planner — are
// written once against the interface; this suite is the proof that
// swapping the cgroups daemon for the simulated testbed or the
// in-process registry does not change their semantics. A new backend
// gets conformance by adding a factory test that calls runConformance.
package conformance

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/core"
	"atm/internal/resilience"
	"atm/internal/testbed"
	"atm/internal/trace"
)

// ids is the provisioned inventory every factory prepares, with the
// same initial limits, so all backends face identical scenarios.
var ids = []string{"vm-a", "vm-b", "vm-c", "vm-d"}

const (
	initCPU = 7.2
	initRAM = 4
)

// TestCgroupsDaemonConformance runs the suite against the real HTTP
// client talking to an httptest daemon — the paper's hypervisor-daemon
// deployment shape.
func TestCgroupsDaemonConformance(t *testing.T) {
	runConformance(t, func(t *testing.T) *Target {
		reg := provisionedRegistry(t)
		srv := httptest.NewServer(reg.Handler())
		t.Cleanup(srv.Close)
		c, err := actuator.NewClient(srv.URL, srv.Client())
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		return &Target{Backend: c, IDs: append([]string(nil), ids...), UnknownID: "ghost"}
	})
}

// TestTestbedConformance runs the suite against the simulated
// MediaWiki cluster's backend; the provisioned ids are real topology
// VMs, whose default limits match the other factories' provisioning.
func TestTestbedConformance(t *testing.T) {
	runConformance(t, func(t *testing.T) *Target {
		c := testbed.DefaultTopology()
		vms := []string{"wiki-one-apache-1", "wiki-one-apache-2", "wiki-one-mysql-1", "wiki-two-apache-1"}
		return &Target{Backend: c.Backend(), IDs: vms, UnknownID: "ghost"}
	})
}

// TestRegistryConformance runs the suite against the bare in-process
// registry — the engine's default in-memory actuation target.
func TestRegistryConformance(t *testing.T) {
	runConformance(t, func(t *testing.T) *Target {
		return &Target{Backend: provisionedRegistry(t), IDs: append([]string(nil), ids...), UnknownID: "ghost"}
	})
}

func provisionedRegistry(t *testing.T) *actuator.Registry {
	reg := actuator.NewRegistry()
	for _, id := range ids {
		if err := reg.Set(id, actuator.Limits{CPUGHz: initCPU, RAMGB: initRAM}); err != nil {
			t.Fatalf("provision %s: %v", id, err)
		}
	}
	return reg
}

// Target is one backend instance under test, with the world it
// actuates prepared by its Factory.
type Target struct {
	// Backend is the implementation under test, unwrapped.
	Backend actuator.Backend
	// IDs are provisioned group ids (at least three) whose limits are
	// readable and writable.
	IDs []string
	// UnknownID is an id no group exists under. For backends without
	// CreateOnSet it must also be un-creatable (an unknown pod or VM).
	UnknownID string
}

// Factory builds a fresh, isolated Target. It is called once per
// scenario, so scenarios never see each other's mutations.
type Factory func(t *testing.T) *Target

// eps is the per-field tolerance for limit comparisons: a backend that
// stores limits in quantized units (millicores, bytes) may round-trip
// values with sub-ppm error, which the contract tolerates and
// exact-match backends pass trivially.
const eps = 1e-6

func limitsEqual(a, b actuator.Limits) bool {
	return math.Abs(a.CPUGHz-b.CPUGHz) <= eps && math.Abs(a.RAMGB-b.RAMGB) <= eps
}

// runConformance executes the full conformance suite against the
// factory's backend.
func runConformance(t *testing.T, factory Factory) {
	t.Run("round_trip", func(t *testing.T) { roundTrip(t, factory) })
	t.Run("not_found", func(t *testing.T) { notFound(t, factory) })
	t.Run("invalid_limits", func(t *testing.T) { invalidLimits(t, factory) })
	t.Run("capabilities", func(t *testing.T) { capabilities(t, factory) })
	t.Run("transactional_apply", func(t *testing.T) { transactionalApply(t, factory) })
	t.Run("rollback", func(t *testing.T) { rollback(t, factory) })
	t.Run("chaos", func(t *testing.T) { chaos(t, factory) })
	t.Run("dry_run_zero_writes", func(t *testing.T) { dryRunZeroWrites(t, factory) })
}

// mustTarget validates the factory's output shape once per scenario.
func mustTarget(t *testing.T, factory Factory) *Target {
	t.Helper()
	tg := factory(t)
	if len(tg.IDs) < 3 {
		t.Fatalf("conformance target has %d provisioned ids, need >= 3", len(tg.IDs))
	}
	if tg.UnknownID == "" {
		t.Fatal("conformance target has no UnknownID")
	}
	return tg
}

// snapshot reads every provisioned id's limits.
func snapshot(t *testing.T, b actuator.Backend, ids []string) map[string]actuator.Limits {
	t.Helper()
	out := make(map[string]actuator.Limits, len(ids))
	for _, id := range ids {
		l, err := b.GetLimits(context.Background(), id)
		if err != nil {
			t.Fatalf("snapshot %s: %v", id, err)
		}
		out[id] = l
	}
	return out
}

// boxFor builds the ApplyBox fixture over the target's ids with
// per-VM sizes cpu[i], ram[i].
func boxFor(ids []string, cpu, ram []float64) *core.BoxResult {
	vms := make([]trace.VM, len(ids))
	for i, id := range ids {
		vms[i] = trace.VM{ID: id, CPUCapGHz: 16, RAMCapGB: 64}
	}
	return &core.BoxResult{
		Box: &trace.Box{ID: "conformance-box", VMs: vms, CPUCapGHz: 16 * float64(len(ids)), RAMCapGB: 64 * float64(len(ids))},
		CPU: &core.BoxRun{Resource: trace.CPU, Sizes: cpu},
		RAM: &core.BoxRun{Resource: trace.RAM, Sizes: ram},
	}
}

// sizes builds deterministic per-VM targets, offset so repeated rounds
// write distinct values.
func sizes(n int, round int) (cpu, ram []float64) {
	cpu = make([]float64, n)
	ram = make([]float64, n)
	for i := 0; i < n; i++ {
		cpu[i] = 0.5 + 0.25*float64(i) + 0.125*float64(round)
		ram[i] = 1 + 0.5*float64(i) + 0.25*float64(round)
	}
	return cpu, ram
}

func roundTrip(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	ctx := context.Background()
	for i, id := range tg.IDs {
		want := actuator.Limits{CPUGHz: 1.25 + 0.5*float64(i), RAMGB: 2 + float64(i)}
		if err := tg.Backend.SetLimits(ctx, id, want); err != nil {
			t.Fatalf("SetLimits(%s): %v", id, err)
		}
		got, err := tg.Backend.GetLimits(ctx, id)
		if err != nil {
			t.Fatalf("GetLimits(%s): %v", id, err)
		}
		if !limitsEqual(got, want) {
			t.Errorf("%s round trip = %+v, want %+v", id, got, want)
		}
	}
}

func notFound(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	_, err := tg.Backend.GetLimits(context.Background(), tg.UnknownID)
	if !errors.Is(err, actuator.ErrNotFound) {
		t.Errorf("GetLimits(unknown) = %v, want ErrNotFound", err)
	}
	if !errors.Is(err, actuator.ErrTerminal) {
		t.Errorf("GetLimits(unknown) = %v, want terminal (retrying cannot help)", err)
	}
}

func invalidLimits(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	ctx := context.Background()
	id := tg.IDs[0]
	before, err := tg.Backend.GetLimits(ctx, id)
	if err != nil {
		t.Fatalf("GetLimits(%s): %v", id, err)
	}
	for _, bad := range []actuator.Limits{
		{CPUGHz: -1, RAMGB: 1},
		{CPUGHz: 1, RAMGB: 0},
		{CPUGHz: math.NaN(), RAMGB: 1},
		{CPUGHz: math.Inf(1), RAMGB: 1},
	} {
		if err := tg.Backend.SetLimits(ctx, id, bad); !errors.Is(err, actuator.ErrTerminal) {
			t.Errorf("SetLimits(%+v) = %v, want terminal rejection", bad, err)
		}
	}
	after, err := tg.Backend.GetLimits(ctx, id)
	if err != nil || !limitsEqual(after, before) {
		t.Errorf("invalid writes disturbed state: %+v -> %+v (%v)", before, after, err)
	}
}

// capabilities asserts the descriptor is honest: everything advertised
// works, everything denied fails.
func capabilities(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	ctx := context.Background()
	caps := tg.Backend.Capabilities()
	if caps.Name == "" {
		t.Error("Capabilities().Name is empty")
	}
	if caps.Snapshot {
		if _, err := tg.Backend.GetLimits(ctx, tg.IDs[0]); err != nil {
			t.Errorf("Snapshot advertised but GetLimits failed: %v", err)
		}
	}
	if caps.CreateOnSet {
		if err := tg.Backend.SetLimits(ctx, tg.UnknownID, actuator.Limits{CPUGHz: 1, RAMGB: 1}); err != nil {
			t.Errorf("CreateOnSet advertised but SetLimits(unknown) failed: %v", err)
		} else if _, err := tg.Backend.GetLimits(ctx, tg.UnknownID); err != nil {
			t.Errorf("created group unreadable: %v", err)
		}
	} else {
		if err := tg.Backend.SetLimits(ctx, tg.UnknownID, actuator.Limits{CPUGHz: 1, RAMGB: 1}); err == nil {
			t.Error("CreateOnSet denied but SetLimits(unknown) succeeded")
		} else if !errors.Is(err, actuator.ErrTerminal) {
			t.Errorf("SetLimits(unknown) = %v, want terminal", err)
		}
	}
	if caps.Delete {
		victim := tg.IDs[len(tg.IDs)-1]
		if err := tg.Backend.DeleteGroup(ctx, victim); err != nil {
			t.Errorf("Delete advertised but DeleteGroup failed: %v", err)
		} else if _, err := tg.Backend.GetLimits(ctx, victim); !errors.Is(err, actuator.ErrNotFound) {
			t.Errorf("GetLimits after delete = %v, want ErrNotFound", err)
		}
	}
}

func transactionalApply(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	cpu, ram := sizes(len(tg.IDs), 0)
	res := boxFor(tg.IDs, cpu, ram)
	if err := core.ApplyBox(context.Background(), tg.Backend, res); err != nil {
		t.Fatalf("ApplyBox: %v", err)
	}
	for i, id := range tg.IDs {
		got, err := tg.Backend.GetLimits(context.Background(), id)
		if err != nil {
			t.Fatalf("GetLimits(%s): %v", id, err)
		}
		if want := (actuator.Limits{CPUGHz: cpu[i], RAMGB: ram[i]}); !limitsEqual(got, want) {
			t.Errorf("%s = %+v, want %+v", id, got, want)
		}
	}
}

// failNth fails exactly the n-th SetLimits call (1-indexed) with a
// transient 503, before the write reaches the wrapped backend.
type failNth struct {
	actuator.Backend
	n     int
	calls int
}

func (f *failNth) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	f.calls++
	if f.calls == f.n {
		return &actuator.Error{Op: "set_limits", ID: id, Status: http.StatusServiceUnavailable,
			Err: errors.New("conformance: injected failure")}
	}
	return f.Backend.SetLimits(ctx, id, l)
}

func rollback(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	snaps := snapshot(t, tg.Backend, tg.IDs)
	cpu, ram := sizes(len(tg.IDs), 0)
	res := boxFor(tg.IDs, cpu, ram)

	// Fail the last VM's write: every earlier VM has already been
	// mutated and must be restored.
	err := core.ApplyBox(context.Background(), &failNth{Backend: tg.Backend, n: len(tg.IDs)}, res)
	var pe *core.PartialApplyError
	if !errors.As(err, &pe) {
		t.Fatalf("ApplyBox = %v, want PartialApplyError", err)
	}
	if !pe.RolledBackClean() {
		t.Fatalf("rollback left drift: %v", err)
	}
	for _, id := range tg.IDs {
		got, gerr := tg.Backend.GetLimits(context.Background(), id)
		if gerr != nil || !limitsEqual(got, snaps[id]) {
			t.Errorf("%s = %+v (%v), want snapshot %+v", id, got, gerr, snaps[id])
		}
	}
}

// chaos is the acceptance scenario from the issue: repeated
// transactional applies through the retry/breaker stack while the
// backend injects seeded faults on 30% of mutations. The invariant is
// zero partially-resized boxes — after every round the box either
// fully carries its targets or is identical to its pre-round
// snapshot.
func chaos(t *testing.T, factory Factory) {
	const (
		faultRate = 0.30
		rounds    = 8
	)
	tg := mustTarget(t, factory)
	flaky := newFlakyBackend(tg.Backend, faultRate, 1711)
	rc := actuator.NewResilientBackend(flaky, actuator.ResilientConfig{
		Retry: resilience.Policy{
			MaxAttempts: 8,
			Seed:        7,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		},
		Breaker: resilience.BreakerConfig{Name: "conformance-chaos", FailureThreshold: 1000},
	})

	ctx := context.Background()
	applied, rolledBack := 0, 0
	for round := 0; round < rounds; round++ {
		snaps := snapshot(t, tg.Backend, tg.IDs)
		cpu, ram := sizes(len(tg.IDs), round)
		res := boxFor(tg.IDs, cpu, ram)
		err := core.ApplyBox(ctx, rc, res)
		var pe *core.PartialApplyError
		switch {
		case err == nil:
			applied++
			for i, id := range tg.IDs {
				got, gerr := tg.Backend.GetLimits(ctx, id)
				if gerr != nil {
					t.Fatalf("round %d %s: %v", round, id, gerr)
				}
				if want := (actuator.Limits{CPUGHz: cpu[i], RAMGB: ram[i]}); !limitsEqual(got, want) {
					t.Errorf("round %d: %s partially resized: %+v, want target %+v", round, id, got, want)
				}
			}
		case errors.As(err, &pe):
			rolledBack++
			if !pe.RolledBackClean() {
				t.Errorf("round %d rolled back dirty: %v", round, err)
			}
			for _, id := range tg.IDs {
				got, gerr := tg.Backend.GetLimits(ctx, id)
				if gerr != nil || !limitsEqual(got, snaps[id]) {
					t.Errorf("round %d: %s partially resized: %+v (%v), want snapshot %+v",
						round, id, got, gerr, snaps[id])
				}
			}
		default:
			t.Errorf("round %d: unexpected apply error %v", round, err)
		}
	}

	calls, failures := flaky.stats()
	if failures == 0 {
		t.Fatalf("chaos injected nothing over %d mutating calls", calls)
	}
	t.Logf("chaos: %d rounds (%d applied, %d rolled back), %d mutations, %d injected failures",
		rounds, applied, rolledBack, calls, failures)
}

// dryRunZeroWrites proves the what-if path against this backend is
// read-only: a counting wrapper sees reads but zero mutations.
func dryRunZeroWrites(t *testing.T, factory Factory) {
	tg := mustTarget(t, factory)
	counting := &countingBackend{Backend: tg.Backend}
	cpu, ram := sizes(len(tg.IDs), 0)
	cfg := policy.Config{Rules: []policy.Rule{{Match: "*", MaxCPUGHz: 0.75, MaxStepRAMGB: 0.25}}}

	plan := policy.WhatIf(context.Background(), counting, cfg, "conformance-box", tg.IDs, cpu, ram)

	if counting.writes.Load() != 0 {
		t.Fatalf("what-if issued %d mutating calls, want 0", counting.writes.Load())
	}
	if tg.Backend.Capabilities().Snapshot && counting.reads.Load() == 0 {
		t.Error("what-if read nothing from a snapshot-capable backend")
	}
	if len(plan.Rows) != len(tg.IDs) {
		t.Fatalf("plan rows = %d, want %d", len(plan.Rows), len(tg.IDs))
	}
	clamped := 0
	for _, row := range plan.Rows {
		if len(row.Violations) > 0 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Error("plan recorded no rail violations despite a binding max rule")
	}
	if plan.Mode != policy.ModeClamp {
		t.Errorf("plan mode = %q, want default clamp", plan.Mode)
	}
}
