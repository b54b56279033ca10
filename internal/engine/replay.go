package engine

import (
	"context"
	"fmt"

	"atm/internal/core"
	"atm/internal/state"
	"atm/internal/trace"
)

// Replay drives one box's recorded trace through an engine, the loop
// the daemon runs on live telemetry: after the first TrainWindows +
// Horizon samples, every further Horizon samples fire one step,
// floor((samples - TrainWindows) / Horizon) steps in all. The trace is
// appended to a one-shard store that retains TrainWindows + 2·Horizon
// samples, and each append is followed by a synchronous pass, so the
// replay publishes exactly the plans a live engine would — model phases
// run ahead, the robust controller, scoring and (with cfg.Backend)
// actuation included — and runs one model phase per step: none runs
// ahead for a step past the trace's end. cfg.Workers is ignored: the
// replay runs on the calling goroutine.
//
// visit receives every step's published plan, result and error before
// the next step runs. The plan's size slices and the result (with its
// window box) are the engine's and are rewritten by the next step, so a
// visitor that keeps either clones it. A window that produced no plan
// comes with a nil result and a plan holding only the box and step. A
// non-nil return from visit stops the replay with that error. Replay
// returns core.ErrShortTrace when no step fits in the trace, and the
// store's error for samples it does not accept (NaN gaps, negatives).
func Replay(ctx context.Context, b *trace.Box, cfg Config, visit func(p Plan, res *core.BoxResult, err error) error) error {
	train, horizon := cfg.Core.TrainWindows, cfg.Core.Horizon
	st, err := state.NewStoreSharded(train+2*horizon, 1)
	if err != nil {
		return err
	}
	cfg.Workers = 1
	e, err := New(st, cfg) // validates cfg: horizon > 0 from here
	if err != nil {
		return err
	}
	total := 0
	if len(b.VMs) > 0 {
		total = len(b.VMs[0].CPU)
	}
	steps := (total - train) / horizon
	if steps <= 0 {
		return fmt.Errorf("engine: %d samples for train %d + horizon %d: %w",
			total, train, horizon, core.ErrShortTrace)
	}
	if err := st.Register(state.MetaOf(b)); err != nil {
		return err
	}
	// The last step, or a visitor's error, ends the replay: cancelling
	// stops the box from queueing a next step's model phase ahead.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var visitErr error
	e.visit = func(p *Plan, res *core.BoxResult, err error) {
		if visitErr == nil {
			visitErr = visit(*p, res, err)
		}
		if visitErr != nil || p.Step == steps-1 {
			cancel()
		}
	}
	cpu := make([][]float64, train+horizon)
	ram := make([][]float64, train+horizon)
	for k := range cpu {
		cpu[k] = make([]float64, len(b.VMs))
		ram[k] = make([]float64, len(b.VMs))
	}
	for from, to := 0, train+horizon; to <= e.need(steps-1); from, to = to, to+horizon {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: replay %s at sample %d: %w", b.ID, from, err)
		}
		n := to - from
		for k := 0; k < n; k++ {
			for v := range b.VMs {
				cpu[k][v] = b.VMs[v].CPU[from+k]
				ram[k][v] = b.VMs[v].RAM[from+k]
			}
		}
		if _, err := st.AppendBatch(b.ID, cpu[:n], ram[:n]); err != nil {
			return fmt.Errorf("engine: replay: %w", err)
		}
		e.Sync(ctx)
		if visitErr != nil {
			return visitErr
		}
	}
	return nil
}
