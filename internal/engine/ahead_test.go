package engine

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/obs"
)

// modelPhases reads atm_engine_model_phase_total{outcome}: where the
// model phases of the steps published so far ran.
func modelPhases(outcome string) float64 {
	return obs.Default().CounterVec("atm_engine_model_phase_total", "", "outcome").With(outcome).Value()
}

// spanStart returns when the named span of the box's given step began.
func (f *schedFixture) spanStart(name string, box, step int) time.Time {
	f.t.Helper()
	for _, sp := range f.spans.all() {
		if sp.Name == name && attr(sp, "box") == f.boxes[box].ID && attr(sp, "step") == step {
			return sp.Start
		}
	}
	f.t.Fatalf("no %s span of box %d step %d", name, box, step)
	return time.Time{}
}

// TestGateDueBeforeAhead: on the ready queue every due step goes before
// every box that only wants to run a model phase ahead of time, however
// early that one was pushed and however cheap it is; a box promoted when
// its step falls due takes its place among the due ones.
func TestGateDueBeforeAhead(t *testing.T) {
	h := newGateHarness(1)
	h.s.tryAcquire(&boxRun{})
	ahead := func(name string, due time.Duration) *boxRun {
		br := &boxRun{id: name, ahead: true, due: h.base.Add(due)}
		h.s.push(br)
		return br
	}
	ahead("ahead-b", 2)
	late := ahead("ahead-late", 9)
	ahead("ahead-a", 1)
	h.enqueue("due-b", 7)
	h.enqueue("due-a", 5)
	h.s.promote(late, h.base.Add(3), 3) // due at 6, between the two
	for _, want := range []string{"due-a", "ahead-late", "due-b", "ahead-a", "ahead-b"} {
		if got := h.next(); got != want {
			t.Fatalf("dispatched %q, want %q", got, want)
		}
	}
	if late.ahead || !late.ready.Equal(h.base.Add(3)) {
		t.Fatalf("promoted box is ahead=%v, ready at %v", late.ahead, late.ready)
	}
}

// TestGateLendsIngestSlot: while batches land, the slot shut for ingest
// is refused to due steps and lent to a model phase run ahead — unless a
// due step is queued for it, which the phase would pass.
func TestGateLendsIngestSlot(t *testing.T) {
	h := newGateHarness(2)
	h.s.lastAppend = time.Now // batches keep landing
	due, ahead := &boxRun{}, &boxRun{ahead: true}
	if !h.s.tryAcquire(due) || h.s.tryAcquire(due) {
		t.Fatal("due steps were not held to one of two slots while batches land")
	}
	h.enqueue("due", 1)
	if h.s.tryAcquire(ahead) {
		t.Fatal("a model phase run ahead passed the due step queued for the shut slot")
	}
	if got := h.next(); got != "due" {
		t.Fatalf("dispatched %q into the freed slot, want the due step", got)
	}
	if !h.s.tryAcquire(ahead) {
		t.Fatal("a model phase run ahead was refused the slot shut for ingest")
	}
	h.s.push(&boxRun{id: "ahead", ahead: true, due: h.base})
	if got := h.next(); got != "ahead" {
		t.Fatalf("dispatched %q into the shut slot, want the model phase run ahead", got)
	}
	h.s.dispatch(2)
	if h.s.held() != 0 || h.s.queued() != 0 {
		t.Fatalf("idle scheduler holds %d slots and %d boxes, want 0 and 0", h.s.held(), h.s.queued())
	}
}

// TestEngineIdleGapBurstOnlyFinishes: boxes that were idle for as long as
// a model phase takes since their last plan have the next one behind
// them. When their windows complete together, no plan of the burst waits
// for a signature search, a fit or a solve — every step only finishes.
func TestEngineIdleGapBurstOnlyFinishes(t *testing.T) {
	vms := []int{2, 7, 3, 9, 4, 5}
	all := []int{0, 1, 2, 3, 4, 5}
	var burst atomic.Bool
	f := newSchedFixture(t, 4, vms, func() {}, func(c *Config) { c.Workers = 2 })
	f.onFit = func(box, step int) {
		if step == 1 && burst.Load() {
			t.Errorf("box %d fitted step 1's model after its window had completed", box)
		}
	}
	stop := f.run()
	for _, i := range all {
		f.feed(i, f.e.Need(1)-1)
	}
	f.waitSteps(1, all...)
	for _, i := range all {
		f.waitState(i, "prepared")
	}
	ahead, inline, stale := modelPhases("ahead"), modelPhases("inline"), modelPhases("stale")
	burst.Store(true)
	for _, i := range all {
		f.feed(i, f.e.Need(1))
	}
	f.waitSteps(2, all...)
	stop()
	if a, i, s := modelPhases("ahead")-ahead, modelPhases("inline")-inline, modelPhases("stale")-stale; a != float64(len(all)) || i != 0 || s != 0 {
		t.Fatalf("the burst's %d steps ran their model phase ahead %v times, inline %v, stale %v; want all ahead", len(all), a, i, s)
	}
}

// TestEngineDueStepBeforeQueuedModelPhase: a box queued to run its next
// model phase ahead of time gives way to a step that falls due later.
// Both slots are blocked when box 0 publishes, so its phase queues; then
// box 3 falls due. The slot that frees goes to box 3's step.
func TestEngineDueStepBeforeQueuedModelPhase(t *testing.T) {
	first, second, third := newFitBlock(), newFitBlock(), newFitBlock()
	f := newSchedFixture(t, 4, []int{2, 2, 2, 2}, func() {}, func(c *Config) { c.Workers = 2 })
	f.onFit = func(box, step int) {
		switch {
		case box == 1 && step == 0:
			first.fit()
		case box == 0 && step == 0:
			second.fit()
		case box == 2 && step == 0:
			third.fit()
		}
	}
	stop := f.run()
	first.armed.Store(true)
	f.feed(1, f.e.Need(0))
	<-first.blocked // one slot is box 1's for the duration
	second.armed.Store(true)
	f.feed(0, f.e.Need(0))
	<-second.blocked // box 0 has the other
	third.armed.Store(true)
	f.feed(2, f.e.Need(0))
	waitFor(t, "box 2 to queue", func() bool { return f.e.sched.queued() == 1 })
	close(second.unblock) // box 0's slot goes to box 2, which keeps it
	<-third.blocked
	f.waitSteps(1, 0)
	f.waitState(0, "preparing") // published; its next model phase waits for a slot
	f.feed(3, f.e.Need(0))
	waitFor(t, "box 3 to queue behind box 0", func() bool { return f.e.sched.queued() == 2 })
	close(third.unblock)
	f.waitSteps(1, 2, 3)
	f.waitState(0, "prepared")
	close(first.unblock)
	f.waitSteps(1, 1)
	stop()
	if step, model := f.spanStart("engine.step", 3, 0), f.spanStart("engine.model", 0, 1); !step.Before(model) {
		t.Fatalf("box 0's model phase, queued first, was dispatched %v before box 3's due step", step.Sub(model))
	}
}

// TestEngineAppendDuringModelPhaseNotLost: the append that completes a
// box's window while its next model phase is being run ahead of time, or
// is still queued for a slot, is not lost and needs no later append or
// pass: the box turns into a due step where it is. If the phase was
// running, the step goes on in the same slot and uses it; if it was still
// queued, the step computes its own, as a step always did.
func TestEngineAppendDuringModelPhaseNotLost(t *testing.T) {
	for _, state := range []string{"running", "queued"} {
		hold, other, model := newFitBlock(), newFitBlock(), newFitBlock()
		f := newSchedFixture(t, 2, []int{3, 2}, func() {}, func(c *Config) {
			c.Workers = 1
			c.Poll = time.Hour // no pass but the appends' own
		})
		f.onFit = func(box, step int) {
			switch {
			case box == 0 && step == 0:
				hold.fit()
			case box == 1 && step == 0:
				other.fit()
			case box == 0 && step == 1:
				model.fit()
			}
		}
		stop := f.run()
		if state == "running" {
			model.armed.Store(true)
			f.feed(0, f.e.Need(0))
			<-model.blocked // step 0 is out; step 1's model phase holds the slot
		} else {
			hold.armed.Store(true)
			f.feed(0, f.e.Need(0))
			<-hold.blocked
			other.armed.Store(true)
			f.feed(1, f.e.Need(0))
			waitFor(t, "box 1 to queue", func() bool { return f.e.sched.queued() == 1 })
			close(hold.unblock) // box 0's slot goes to box 1, which keeps it
			<-other.blocked
			f.waitSteps(1, 0) // step 0 is out; step 1's model phase waits for the slot
		}
		f.waitState(0, "preparing")
		ahead, inline, waits := modelPhases("ahead"), modelPhases("inline"), stepWaitSeconds.Count()
		f.feed(0, f.e.Need(1)) // the window completes under the phase
		f.waitState(0, state)  // and the box is a due step, where it was
		close(model.unblock)
		close(other.unblock)
		f.waitSteps(2, 0)
		if got := stepWaitSeconds.Count() - waits; state == "running" && got != 1 {
			t.Fatalf("running: %d step waits observed for one due step", got)
		}
		stop()
		a, i := modelPhases("ahead")-ahead, modelPhases("inline")-inline
		if wantAhead := state == "running"; (a == 1) != wantAhead || a+i != 1 {
			t.Fatalf("%s: step 1's model phase ran ahead %v times and inline %v", state, a, i)
		}
	}
}

// TestEngineCancelDuringModelPhase: cancelling Run while a model phase
// runs ahead of time lets it finish and starts nothing else — neither
// the due step queued behind it nor anything of the box itself.
func TestEngineCancelDuringModelPhase(t *testing.T) {
	block := newFitBlock()
	f := newSchedFixture(t, 2, []int{2, 2}, func() {}, func(c *Config) { c.Workers = 1 })
	f.onFit = func(box, step int) {
		if box == 0 && step == 1 {
			block.fit()
		}
	}
	stop := f.run()
	block.armed.Store(true)
	f.feed(0, f.e.Need(0))
	<-block.blocked
	f.feed(1, f.e.Need(0))
	waitFor(t, "box 1 to queue", func() bool { return f.e.sched.queued() == 1 })
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Run returned with a model phase in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(block.unblock)
	<-stopped
	if got := []int{f.e.Steps(f.boxes[0].ID), f.e.Steps(f.boxes[1].ID)}; !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("steps after cancel = %v, want [1 0]: the phase in flight finishes, the queued step does not start", got)
	}
	if q, held := f.e.sched.queued(), f.e.sched.held(); q != 0 || held != 0 {
		t.Fatalf("drained engine has %d boxes queued and %d slots held", q, held)
	}
	for i, want := range []string{"prepared", "idle"} {
		if d, ok := f.e.Debug(f.boxes[i].ID); !ok || d.State != want {
			t.Fatalf("box %d is %q after the drain, want %s", i, d.State, want)
		}
	}
}

// TestEngineEstimateIsModelPhaseTime: what the scheduler expects a box's
// next model phase to cost is what its last one took, wherever that ran
// — never the slot time of a step that only finished a prepared phase,
// which would rank every box of a burst as free and order it by arrival.
func TestEngineEstimateIsModelPhaseTime(t *testing.T) {
	const slowed = 30 * time.Millisecond
	block := newFitBlock()
	var slept atomic.Bool
	f := newSchedFixture(t, 1, []int{3}, func() {}, func(c *Config) { c.Workers = 1 })
	f.onFit = func(box, step int) {
		switch step {
		case 1:
			if slept.CompareAndSwap(false, true) {
				time.Sleep(slowed)
			}
		case 2:
			block.fit()
		}
	}
	stop := f.run()
	block.armed.Store(true)
	f.feed(0, f.e.Need(0))
	f.waitState(0, "prepared") // step 1's model phase took its time
	f.feed(0, f.e.Need(1))
	<-block.blocked // step 1 only finished, and is out; step 2's phase has not got anywhere
	br := f.e.shards[0].boxes[f.boxes[0].ID]
	if got := f.e.estimate(br); got < slowed {
		t.Fatalf("estimate after a finish-only step = %v, want the model phase's %v or more", got, slowed)
	}
	close(block.unblock)
	stop()
}

// TestEngineNoModelWorkBeforeFirstPlan: a fleet ingested up to its
// training window and no further — what a backfill leaves — has run no
// pipeline work: step 0 has no predecessor to run its model phase after,
// and is computed when due.
func TestEngineNoModelWorkBeforeFirstPlan(t *testing.T) {
	vms := []int{2, 3, 4, 5}
	f := newSchedFixture(t, 2, vms, func() { t.Error("a model was fitted before any step was due") }, nil)
	steps := stepsTotal.Value()
	phases := modelPhases("ahead") + modelPhases("inline") + modelPhases("stale")
	stop := f.run()
	for i := range vms {
		f.feed(i, f.e.cfg.Core.TrainWindows)
	}
	for i := range f.e.shards {
		f.e.SyncShard(context.Background(), i) // every append has been looked at
	}
	stop()
	for i := range f.e.shards {
		if n := len(f.e.shards[i].boxes); n != 0 {
			t.Fatalf("shard %d holds %d pipelines for boxes that never planned", i, n)
		}
	}
	if got := stepsTotal.Value() - steps; got != 0 {
		t.Fatalf("%v steps ran", got)
	}
	if got := modelPhases("ahead") + modelPhases("inline") + modelPhases("stale") - phases; got != 0 {
		t.Fatalf("%v model phases ran", got)
	}
	if q, held := f.e.sched.queued(), f.e.sched.held(); q != 0 || held != 0 {
		t.Fatalf("%d boxes queued, %d slots held", q, held)
	}
}
