package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"atm/internal/actuator"
	"atm/internal/obs"
)

// Actuation-transaction metrics: how often a box push failed partway
// and fell back to rollback, and how often a rollback write itself
// failed (the only path that can leave a box drifted from both its
// snapshot and its target).
var (
	applyRollbacks = obs.Default().Counter("atm_apply_rollbacks_total",
		"Box pushes that failed partway and attempted rollback.")
	applyRollbackFailures = obs.Default().Counter("atm_apply_rollback_failures_total",
		"Per-VM rollback writes that themselves failed, leaving drift.")
)

// minLimit floors actuated capacities: the MCKP solver may assign a
// VM a zero (or denormal) size when its predicted demand vanishes,
// but cgroup limits must stay positive for the guest to keep running.
const minLimit = 1e-3

// ErrNoSnapshot marks a VM whose rollback was impossible because the
// actuator exposes no way to read or remove its previous state.
var ErrNoSnapshot = errors.New("core: actuator cannot snapshot/restore limits")

// VMOutcome is one VM's fate inside a failed box push.
type VMOutcome struct {
	// VM is the cgroup id.
	VM string
	// Err is the apply failure; nil for VMs whose apply succeeded
	// before the transaction aborted.
	Err error
	// Applied reports whether the new limits were written.
	Applied bool
	// RolledBack reports whether the VM was restored to its snapshot
	// (or, for a cgroup the push created, removed again).
	RolledBack bool
	// RollbackErr is the rollback failure, if the restore write
	// failed; such a VM is left at the new limits while its box
	// siblings are not.
	RollbackErr error
}

// PartialApplyError reports a box push that could not complete. It
// carries the per-VM outcomes in apply order up to and including the
// failing VM, so operators can see exactly which cgroups were touched
// and whether the rollback returned them to the snapshot.
type PartialApplyError struct {
	// Box is the box id.
	Box string
	// Outcomes covers the VMs the push attempted, in order.
	Outcomes []VMOutcome
}

func (e *PartialApplyError) Error() string {
	applied, rolledBack, failed := 0, 0, 0
	var cause error
	for _, o := range e.Outcomes {
		if o.Applied {
			applied++
		}
		if o.RolledBack {
			rolledBack++
		}
		if o.RollbackErr != nil {
			failed++
		}
		if cause == nil && o.Err != nil {
			cause = o.Err
		}
	}
	return fmt.Sprintf("core: partial apply on box %s: %v (%d applied, %d rolled back, %d rollback failures)",
		e.Box, cause, applied, rolledBack, failed)
}

// Unwrap returns the apply failure that aborted the transaction, so
// errors.Is/As reach the actuator's typed classification.
func (e *PartialApplyError) Unwrap() error {
	for _, o := range e.Outcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// RolledBackClean reports whether the rollback left no VM in a
// drifted or unknown state: every touched VM — including the failing
// one, whose write may have landed before its error — was restored to
// its snapshot.
func (e *PartialApplyError) RolledBackClean() bool {
	for _, o := range e.Outcomes {
		if o.RollbackErr != nil {
			return false
		}
		if o.Applied && !o.RolledBack {
			return false
		}
	}
	return true
}

// applySnapshot is one VM's pre-push daemon state.
type applySnapshot struct {
	limits  actuator.Limits
	existed bool
}

// ApplyBox pushes one box's resize decision to the actuation backend
// as a transaction: when the backend advertises Snapshot, it records
// every VM's current limits first, applies all VMs, and on a partial
// failure restores the already-applied VMs to their snapshots in
// reverse order (removing groups the push created, when the backend
// advertises Delete). The outcome of a partial failure is a
// *PartialApplyError carrying per-VM detail; a clean rollback leaves
// the box exactly as it was.
//
// With a write-only backend the push degenerates to the non-
// transactional behavior: the first failing VM aborts it and the
// outcomes report ErrNoSnapshot for the VMs that could not be
// restored.
//
// Under an obs.Tracer the push is a "core.actuate" span whose children
// are the per-VM actuator calls, completing the search→fit→resize→
// actuate trace of a box.
func ApplyBox(ctx context.Context, b actuator.Backend, res *BoxResult) error {
	if res.CPU == nil || res.RAM == nil {
		return fmt.Errorf("core: %s: incomplete resize result: %w", res.Box.ID, ErrBadConfig)
	}
	ctx, span := obs.StartSpan(ctx, "core.actuate")
	defer span.End()
	span.SetAttr("box", res.Box.ID)
	span.SetAttr("vms", len(res.Box.VMs))
	start := time.Now()
	defer func() {
		stageSeconds.With("actuate").Observe(time.Since(start).Seconds())
	}()

	// Snapshot before mutating anything. A snapshot read failure
	// aborts the push with the daemon untouched — never half-apply a
	// box whose rollback state is unknown.
	caps := b.Capabilities()
	var snaps []applySnapshot
	if caps.Snapshot {
		snaps = make([]applySnapshot, len(res.Box.VMs))
		for v := range res.Box.VMs {
			id := res.Box.VMs[v].ID
			l, err := b.GetLimits(ctx, id)
			switch {
			case errors.Is(err, actuator.ErrNotFound):
				snaps[v] = applySnapshot{existed: false}
			case err != nil:
				return fmt.Errorf("core: snapshot %s/%s: %w", res.Box.ID, id, err)
			default:
				snaps[v] = applySnapshot{limits: l, existed: true}
			}
		}
	}

	outcomes := make([]VMOutcome, 0, len(res.Box.VMs))
	failedAt := -1
	for v := range res.Box.VMs {
		id := res.Box.VMs[v].ID
		l := actuator.Limits{
			CPUGHz: math.Max(res.CPU.Sizes[v], minLimit),
			RAMGB:  math.Max(res.RAM.Sizes[v], minLimit),
		}
		o := VMOutcome{VM: id}
		if err := b.SetLimits(ctx, id, l); err != nil {
			o.Err = fmt.Errorf("core: actuate %s/%s: %w", res.Box.ID, id, err)
			outcomes = append(outcomes, o)
			failedAt = v
			break
		}
		o.Applied = true
		outcomes = append(outcomes, o)
	}
	if failedAt < 0 {
		return nil
	}

	// Best-effort rollback, newest first. The failing VM is restored
	// too: a SetLimits error does not prove the write never landed (a
	// connection reset after the daemon mutated looks identical to one
	// before), so its state is unknown and only a defensive restore
	// returns the box to the snapshot.
	applyRollbacks.Inc()
	span.SetAttr("rollback", true)
	for v := failedAt; v >= 0; v-- {
		id := res.Box.VMs[v].ID
		switch {
		case !caps.Snapshot:
			outcomes[v].RollbackErr = ErrNoSnapshot
		case snaps[v].existed:
			if err := b.SetLimits(ctx, id, snaps[v].limits); err != nil {
				outcomes[v].RollbackErr = err
			} else {
				outcomes[v].RolledBack = true
			}
		case caps.Delete:
			if err := b.DeleteGroup(ctx, id); err != nil {
				outcomes[v].RollbackErr = err
			} else {
				outcomes[v].RolledBack = true
			}
		default:
			// The push created this cgroup and the backend cannot
			// remove it again.
			outcomes[v].RollbackErr = ErrNoSnapshot
		}
		if outcomes[v].RollbackErr != nil {
			applyRollbackFailures.Inc()
		}
	}
	return &PartialApplyError{Box: res.Box.ID, Outcomes: outcomes}
}
