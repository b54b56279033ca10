package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"atm/internal/actuator"
	"atm/internal/resilience"
	"atm/internal/trace"
)

// applyFixture builds a minimal resize decision for an n-VM box: VM v
// gets CPU v+1 GHz and RAM 2(v+1) GB.
func applyFixture(n int) *BoxResult {
	vms := make([]trace.VM, n)
	cpu := make([]float64, n)
	ram := make([]float64, n)
	for v := 0; v < n; v++ {
		vms[v] = trace.VM{ID: fmt.Sprintf("vm-%d", v), CPUCapGHz: 4, RAMCapGB: 16}
		cpu[v] = float64(v + 1)
		ram[v] = 2 * float64(v+1)
	}
	b := &trace.Box{ID: "box-0", VMs: vms, CPUCapGHz: 4 * float64(n), RAMCapGB: 16 * float64(n)}
	return &BoxResult{
		Box: b,
		CPU: &BoxRun{Resource: trace.CPU, Sizes: cpu},
		RAM: &BoxRun{Resource: trace.RAM, Sizes: ram},
	}
}

// scriptedActuator wraps a real registry with a per-VM queue of
// scripted SetLimits outcomes: each call pops one entry (nil =
// succeed, non-nil = fail without touching the registry). It inherits
// GetLimits/DeleteGroup from the registry, so ApplyBox sees the full
// transactional capability set.
type scriptedActuator struct {
	*actuator.Registry
	mu   sync.Mutex
	fail map[string][]error
	sets []string
}

func newScripted() *scriptedActuator {
	return &scriptedActuator{Registry: actuator.NewRegistry(), fail: map[string][]error{}}
}

func (s *scriptedActuator) script(id string, outcomes ...error) {
	s.fail[id] = append(s.fail[id], outcomes...)
}

func (s *scriptedActuator) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	s.mu.Lock()
	var err error
	if q := s.fail[id]; len(q) > 0 {
		err, s.fail[id] = q[0], q[1:]
	}
	s.sets = append(s.sets, id)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Registry.SetLimits(ctx, id, l)
}

// capsBackend advertises caps over a full backend and counts the
// snapshot reads that reach it: ApplyBox must go by what a backend
// advertises, not by the methods it happens to have.
type capsBackend struct {
	actuator.Backend
	caps actuator.Capabilities
	gets int
}

func (c *capsBackend) Capabilities() actuator.Capabilities { return c.caps }

func (c *capsBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	c.gets++
	return c.Backend.GetLimits(ctx, id)
}

// badGetter fails every snapshot read with a non-NotFound error.
type badGetter struct{ actuator.Backend }

func (badGetter) GetLimits(context.Context, string) (actuator.Limits, error) {
	return actuator.Limits{}, errors.New("snapshot boom")
}

// seed populates the registry with each VM's original capacities — the
// pre-push daemon state a rollback must restore.
func seed(t *testing.T, reg *actuator.Registry, b *trace.Box) map[string]actuator.Limits {
	t.Helper()
	snap := make(map[string]actuator.Limits, len(b.VMs))
	for _, vm := range b.VMs {
		l := actuator.Limits{CPUGHz: vm.CPUCapGHz, RAMGB: vm.RAMCapGB}
		if err := reg.Set(vm.ID, l); err != nil {
			t.Fatal(err)
		}
		snap[vm.ID] = l
	}
	return snap
}

func TestApplyBoxSuccess(t *testing.T) {
	res := applyFixture(3)
	act := newScripted()
	seed(t, act.Registry, res.Box)
	if err := ApplyBox(context.Background(), act, res); err != nil {
		t.Fatalf("ApplyBox: %v", err)
	}
	for v, vm := range res.Box.VMs {
		l, err := act.Get(vm.ID)
		if err != nil {
			t.Fatalf("%s missing after apply: %v", vm.ID, err)
		}
		if l.CPUGHz != res.CPU.Sizes[v] || l.RAMGB != res.RAM.Sizes[v] {
			t.Errorf("%s = %+v, want cpu %v ram %v", vm.ID, l, res.CPU.Sizes[v], res.RAM.Sizes[v])
		}
	}
}

func TestApplyBoxFloorsTinySizes(t *testing.T) {
	res := applyFixture(1)
	res.CPU.Sizes[0] = 0
	res.RAM.Sizes[0] = -0.5
	act := newScripted()
	if err := ApplyBox(context.Background(), act, res); err != nil {
		t.Fatalf("ApplyBox: %v", err)
	}
	l, _ := act.Get("vm-0")
	if l.CPUGHz != minLimit || l.RAMGB != minLimit {
		t.Errorf("limits = %+v, want floor %v", l, minLimit)
	}
}

// TestApplyBoxPartialFailureMatrix is the rollback matrix: the apply
// fails at the first / a middle / the last VM, and in each case the
// already-applied prefix must be restored to the snapshot.
func TestApplyBoxPartialFailureMatrix(t *testing.T) {
	errBoom := errors.New("daemon boom")
	for _, failAt := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("fail_at_%d", failAt), func(t *testing.T) {
			res := applyFixture(5)
			act := newScripted()
			snap := seed(t, act.Registry, res.Box)
			act.script(res.Box.VMs[failAt].ID, errBoom)

			err := ApplyBox(context.Background(), act, res)
			var pe *PartialApplyError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PartialApplyError", err)
			}
			if !errors.Is(err, errBoom) {
				t.Errorf("cause %v not reachable through Unwrap", errBoom)
			}
			if pe.Box != "box-0" || len(pe.Outcomes) != failAt+1 {
				t.Fatalf("outcomes = %d for box %s, want %d", len(pe.Outcomes), pe.Box, failAt+1)
			}
			if !pe.RolledBackClean() {
				t.Fatalf("rollback not clean: %+v", pe.Outcomes)
			}
			for v, o := range pe.Outcomes {
				wantApplied := v < failAt
				// Every touched VM is restored, including the failing
				// one (its write may have landed before the error).
				if o.Applied != wantApplied || !o.RolledBack {
					t.Errorf("vm %d outcome = %+v, want applied=%v rolledback", v, o, wantApplied)
				}
				if (v == failAt) != (o.Err != nil) {
					t.Errorf("vm %d Err = %v", v, o.Err)
				}
			}
			// The registry must be byte-identical to the snapshot.
			for id, want := range snap {
				got, err := act.Get(id)
				if err != nil || got != want {
					t.Errorf("%s = %+v (%v), want snapshot %+v", id, got, err, want)
				}
			}
		})
	}
}

func TestApplyBoxRollbackFailure(t *testing.T) {
	errBoom := errors.New("daemon boom")
	errDown := errors.New("daemon down during rollback")
	res := applyFixture(3)
	act := newScripted()
	seed(t, act.Registry, res.Box)
	// vm-2's apply fails; vm-0's second write (the rollback) also
	// fails, so vm-0 stays at the new limits while vm-1 is restored.
	act.script("vm-2", errBoom)
	act.script("vm-0", nil, errDown)

	err := ApplyBox(context.Background(), act, res)
	var pe *PartialApplyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialApplyError", err)
	}
	if pe.RolledBackClean() {
		t.Fatal("RolledBackClean = true with a failed rollback write")
	}
	if o := pe.Outcomes[0]; !o.Applied || o.RolledBack || !errors.Is(o.RollbackErr, errDown) {
		t.Errorf("vm-0 outcome = %+v, want applied, not rolled back, RollbackErr=errDown", o)
	}
	if o := pe.Outcomes[1]; !o.Applied || !o.RolledBack || o.RollbackErr != nil {
		t.Errorf("vm-1 outcome = %+v, want cleanly rolled back", o)
	}
	// Drift is real: vm-0 carries the new limits, vm-1 the snapshot.
	if l, _ := act.Get("vm-0"); l.CPUGHz != res.CPU.Sizes[0] {
		t.Errorf("vm-0 = %+v, want stuck at new limits", l)
	}
	if l, _ := act.Get("vm-1"); l.CPUGHz != res.Box.VMs[1].CPUCapGHz {
		t.Errorf("vm-1 = %+v, want snapshot restored", l)
	}
}

func TestApplyBoxDeletesCreatedGroups(t *testing.T) {
	// Registry starts empty: the push creates the cgroups, so rollback
	// must remove them again rather than restore a snapshot.
	res := applyFixture(3)
	act := newScripted()
	act.script("vm-2", errors.New("boom"))

	err := ApplyBox(context.Background(), act, res)
	var pe *PartialApplyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialApplyError", err)
	}
	if !pe.RolledBackClean() {
		t.Fatalf("rollback not clean: %+v", pe.Outcomes)
	}
	for _, vm := range res.Box.VMs {
		if _, err := act.Get(vm.ID); !errors.Is(err, actuator.ErrNotFound) {
			t.Errorf("%s still present after rollback of a created group", vm.ID)
		}
	}
}

func TestApplyBoxCreatedGroupWithoutDeleter(t *testing.T) {
	res := applyFixture(2)
	act := newScripted()
	act.script("vm-1", errors.New("boom"))

	err := ApplyBox(context.Background(), &capsBackend{Backend: act, caps: actuator.Capabilities{Name: "no-delete", Snapshot: true}}, res)
	var pe *PartialApplyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialApplyError", err)
	}
	if pe.RolledBackClean() {
		t.Fatal("created group cannot be rolled back without DeleteGroup")
	}
	if o := pe.Outcomes[0]; !errors.Is(o.RollbackErr, ErrNoSnapshot) {
		t.Errorf("vm-0 RollbackErr = %v, want ErrNoSnapshot", o.RollbackErr)
	}
}

func TestApplyBoxWriteOnlySetter(t *testing.T) {
	res := applyFixture(3)
	act := newScripted()
	seed(t, act.Registry, res.Box)
	act.script("vm-1", errors.New("boom"))

	// The backend has GetLimits but advertises no Snapshot: ApplyBox
	// must go by the advertisement and never read.
	b := &capsBackend{Backend: act, caps: actuator.Capabilities{Name: "write-only"}}
	err := ApplyBox(context.Background(), b, res)
	var pe *PartialApplyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialApplyError", err)
	}
	if pe.RolledBackClean() {
		t.Fatal("write-only setter cannot roll back")
	}
	if o := pe.Outcomes[0]; !o.Applied || !errors.Is(o.RollbackErr, ErrNoSnapshot) {
		t.Errorf("vm-0 outcome = %+v, want applied with ErrNoSnapshot", o)
	}
	if b.gets != 0 {
		t.Errorf("ApplyBox read %d snapshots from a backend that advertises none", b.gets)
	}
}

func TestApplyBoxSnapshotFailureAborts(t *testing.T) {
	res := applyFixture(2)
	act := newScripted()
	err := ApplyBox(context.Background(), badGetter{act}, res)
	if err == nil {
		t.Fatal("want snapshot error")
	}
	var pe *PartialApplyError
	if errors.As(err, &pe) {
		t.Fatalf("snapshot failure produced a partial apply: %v", err)
	}
	if len(act.sets) != 0 {
		t.Errorf("daemon mutated (%v) despite unknown rollback state", act.sets)
	}
}

func TestApplyBoxIncompleteResult(t *testing.T) {
	res := applyFixture(1)
	res.RAM = nil
	if err := ApplyBox(context.Background(), newScripted(), res); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestChaosRoundTrip is the acceptance scenario: a full degraded-mode
// core.Run plus transactional ApplyBox against an httptest daemon
// whose transport injects ~30% transient faults on a fixed seed. The
// invariant is zero partially-resized boxes — after the round every
// box either fully carries its target limits or is byte-identical to
// its pre-push snapshot — with degraded boxes shipping the stingy
// fallback.
func TestChaosRoundTrip(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Boxes: 3, Days: 3, SamplesPerDay: 32, Seed: 17, GapFraction: 1e-9,
	})
	spd := tr.SamplesPerDay
	boxes := make([]*trace.Box, len(tr.Boxes))
	for i := range tr.Boxes {
		boxes[i] = &tr.Boxes[i]
	}
	// Cripple one box so the degraded path is part of the round.
	for v := range boxes[1].VMs {
		vm := &boxes[1].VMs[v]
		vm.CPU = vm.CPU.Slice(0, spd)
		vm.RAM = vm.RAM.Slice(0, spd)
	}

	cfg := fastConfig(spd)
	cfg.Degraded = true
	cfg.UseLowerBounds = true
	results, err := Run(boxes, spd, cfg)
	if !errors.Is(err, ErrShortTrace) {
		t.Fatalf("run err = %v, want joined ErrShortTrace from the crippled box", err)
	}
	if len(results) != len(boxes) {
		t.Fatalf("results = %d, want %d", len(results), len(boxes))
	}
	if !results[1].Degraded || results[0].Degraded || results[2].Degraded {
		t.Fatalf("degraded flags = %v %v %v, want only box 1",
			results[0].Degraded, results[1].Degraded, results[2].Degraded)
	}

	// Daemon with a chaotic transport in front of it.
	reg := actuator.NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	snaps := make(map[string]actuator.Limits)
	for _, b := range boxes {
		for k, v := range seed(t, reg, b) {
			snaps[k] = v
		}
	}
	chaos := &chaosTransport{
		base:   srv.Client().Transport,
		rng:    rand.New(rand.NewPCG(99, 99^0x9e3779b97f4a7c15)),
		drop:   0.10,
		err5xx: 0.15,
		reset:  0.05,
		counts: map[string]int{},
	}
	httpc := *srv.Client()
	httpc.Transport = chaos
	client, err := actuator.NewClient(srv.URL, &httpc)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rc := actuator.NewResilientBackend(client, actuator.ResilientConfig{
		Retry: resilience.Policy{
			MaxAttempts: 6,
			Seed:        1,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		},
		Breaker: resilience.BreakerConfig{Name: "t-chaos", FailureThreshold: 50},
	})

	ctx := context.Background()
	for i, res := range results {
		err := ApplyBox(ctx, rc, res)
		var pe *PartialApplyError
		switch {
		case err == nil:
			for v, vm := range res.Box.VMs {
				got, gerr := reg.Get(vm.ID)
				if gerr != nil {
					t.Fatalf("box %d %s: %v", i, vm.ID, gerr)
				}
				want := actuator.Limits{
					CPUGHz: math.Max(res.CPU.Sizes[v], minLimit),
					RAMGB:  math.Max(res.RAM.Sizes[v], minLimit),
				}
				if got != want {
					t.Errorf("box %d %s = %+v, want target %+v", i, vm.ID, got, want)
				}
			}
		case errors.As(err, &pe):
			if !pe.RolledBackClean() {
				t.Errorf("box %d rolled back dirty: %v", i, err)
			}
			for _, vm := range res.Box.VMs {
				got, gerr := reg.Get(vm.ID)
				if gerr != nil || got != snaps[vm.ID] {
					t.Errorf("box %d %s = %+v (%v), want snapshot %+v", i, vm.ID, got, gerr, snaps[vm.ID])
				}
			}
		default:
			t.Errorf("box %d: unexpected apply error %v", i, err)
		}
	}

	// The round must have actually exercised the fault paths.
	total := 0
	for _, n := range chaos.counts {
		total += n
	}
	if chaos.calls == 0 || total == 0 {
		t.Fatalf("chaos injected nothing (calls=%d injected=%v)", chaos.calls, chaos.counts)
	}
	t.Logf("chaos: %d transport calls, injected %v", chaos.calls, chaos.counts)
}

// chaosTransport injects seeded faults in front of the daemon: a
// request is dropped before it is sent, answered with a synthetic 503,
// or sent with its response lost — the daemon may have applied the
// write the caller sees fail. Not safe for concurrent use; ApplyBox
// drives it sequentially.
type chaosTransport struct {
	base                http.RoundTripper
	rng                 *rand.Rand
	drop, err5xx, reset float64
	calls               int
	counts              map[string]int
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls++
	drop, err5xx, reset := c.rng.Float64() < c.drop, c.rng.Float64() < c.err5xx, c.rng.Float64() < c.reset
	if drop || err5xx {
		if req.Body != nil {
			req.Body.Close()
		}
	}
	switch {
	case drop:
		c.counts["drop"]++
		return nil, errors.New("chaos: connection reset before send")
	case err5xx:
		c.counts["5xx"]++
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("chaos: injected 503")), Request: req}, nil
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil || !reset {
		return resp, err
	}
	c.counts["reset"]++
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("chaos: connection reset awaiting response")
}
