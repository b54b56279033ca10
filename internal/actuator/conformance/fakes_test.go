package conformance

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"atm/internal/actuator"
)

// flakyBackend injects seeded transient failures in front of a
// backend — the chaos source for backends that never cross HTTP.
// Mutations (SetLimits, DeleteGroup) fail with a 503 *actuator.Error
// before touching the target; reads pass through untouched so
// snapshot/rollback sees true state.
type flakyBackend struct {
	actuator.Backend

	mu       sync.Mutex
	rng      *rand.Rand
	prob     float64
	calls    int
	failures int
}

// newFlakyBackend wraps target, failing each mutating call with
// probability prob under the seeded schedule.
func newFlakyBackend(target actuator.Backend, prob float64, seed int64) *flakyBackend {
	return &flakyBackend{
		Backend: target,
		prob:    prob,
		rng:     rand.New(rand.NewPCG(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15)),
	}
}

// inject decides one mutation's fate under the seeded schedule.
func (f *flakyBackend) inject(op, id string) error {
	f.mu.Lock()
	f.calls++
	fail := f.rng.Float64() < f.prob
	if fail {
		f.failures++
	}
	f.mu.Unlock()
	if fail {
		return &actuator.Error{Op: op, ID: id, Status: http.StatusServiceUnavailable,
			Err: errors.New("flaky: injected failure")}
	}
	return nil
}

func (f *flakyBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	if err := f.inject("set_limits", id); err != nil {
		return err
	}
	return f.Backend.SetLimits(ctx, id, l)
}

func (f *flakyBackend) DeleteGroup(ctx context.Context, id string) error {
	if err := f.inject("delete_group", id); err != nil {
		return err
	}
	return f.Backend.DeleteGroup(ctx, id)
}

// stats returns the total mutating-call and injected-failure counts.
func (f *flakyBackend) stats() (calls, failures int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.failures
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

func TestFlakyBackendDeterministicAndTransient(t *testing.T) {
	ctx := context.Background()
	run := func() (int, error) {
		reg := actuator.NewRegistry()
		f := newFlakyBackend(reg, 0.5, 11)
		var firstErr error
		for i := 0; i < 20; i++ {
			if err := f.SetLimits(ctx, "vm", actuator.Limits{CPUGHz: 1, RAMGB: 1}); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		_, failures := f.stats()
		return failures, firstErr
	}
	f1, err1 := run()
	f2, _ := run()
	if f1 != f2 {
		t.Fatalf("failure schedule not deterministic: %d vs %d", f1, f2)
	}
	if f1 == 0 || f1 == 20 {
		t.Fatalf("failures = %d, want a mix at p=0.5", f1)
	}
	if !errors.Is(err1, actuator.ErrTransient) {
		t.Errorf("injected failure %v not classified transient", err1)
	}
}
