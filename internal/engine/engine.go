// Package engine is ATM's long-running scheduler: it watches a
// streaming state store, fires one rolling pipeline step per box
// whenever Horizon new samples have landed, runs the ready steps
// through one engine-wide scheduler (at most Workers step computations
// at a time, cheapest first; see sched), and keeps the latest resize
// plan per box for the service layer to expose. Replay feeds a
// recorded trace through the same loop for the facade's rolling runs
// and the robustness sweep, stepping core.Pipeline.StepInto
// over the same windows a rolling run would, and a steady-state engine
// pass performs zero heap allocations. The engine keeps only each box's
// latest Plan; per-step outcomes are the decision events
// (Config.Events).
//
// A step has two phases. Everything expensive — search or refit,
// temporal fits, reconstruction, both MCKP solves — reads only the
// training window, which is complete the moment the previous step's
// window is; only evaluation, the ticket counts, control and scoring
// need the horizon's actuals, a whole Horizon later. So once a box's
// plan is out the engine runs its next step's model phase at once, in
// a scheduler slot no due step wants (core.Pipeline.Prepare), and when
// the window completes the step only finishes. Publication still waits
// for the actuals: the published evaluation and the controller's λ are
// functions of them. A box that fell behind, or has never planned,
// computes both phases when its step is due, as before.
//
// The engine is sharded to the state store's layout: each store shard
// gets its own scheduler loop (its own goroutine under Run, draining
// its own notify line), its own box-state map and its own scratch
// buffers. A scheduling pass drains the shard's dirty set and inspects
// only the boxes that received at least one append since the last pass
// — O(dirty), not O(fleet) — which is what lets one daemon keep up
// with the paper's 6K-box / 80K-VM telemetry firehose.
//
// Degraded mode, resilient actuation and observability compose
// through the layers built in earlier PRs: a box whose model fails
// ships the stingy fallback (core.Config.Degraded), plans are pushed
// through Config.Backend — behind the policy rails when Config.Policy
// is set — by the transactional core.ApplyBox, and every step lands in
// atm_engine_* metrics plus the usual span tree.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/parallel"
	"atm/internal/score"
	"atm/internal/state"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Engine metrics: step throughput, the research/refit split lives in
// core (atm_engine_research_total / atm_engine_refit_total), ingest
// lag is the streaming backlog signal, evictions mark boxes whose
// ingest outran the retention window, inspections count the boxes a
// scheduling pass actually looked at (the dirty-set O(k) contract),
// pass timings are recorded per shard, and the step scheduler reports
// its occupancy and how long ready steps waited for a slot.
var (
	stepsTotal = obs.Default().Counter("atm_engine_steps_total",
		"Rolling pipeline steps executed by the streaming engine.")
	stepErrors = obs.Default().Counter("atm_engine_step_errors_total",
		"Engine steps that returned an error (degraded steps included).")
	lagGauge = obs.Default().Gauge("atm_engine_ingest_lag_samples",
		"Largest per-box backlog of ingested samples not yet consumed by a step, among boxes visited by each shard's latest scheduling pass.")
	evictedSteps = obs.Default().Counter("atm_engine_evicted_steps_total",
		"Steps skipped because their window aged out of the state store's retention.")
	inspectedBoxes = obs.Default().Counter("atm_engine_boxes_inspected_total",
		"Boxes inspected by scheduling passes (dirty-set drains keep this O(appends), not O(fleet x passes)).")
	passSeconds = obs.Default().HistogramVec("atm_engine_pass_seconds",
		"Scheduling-pass latency per engine shard (drain + ready checks; a direct Sync that steps inline also times those steps).", nil, "shard")
	stepsInflight = obs.Default().Gauge("atm_engine_steps_inflight",
		"Step computations holding a scheduler slot (bounded by the engine's Workers).")
	stepsQueued = obs.Default().Gauge("atm_engine_steps_queued",
		"Boxes with a due step waiting on the scheduler's ready queue.")
	stepWaitSeconds = obs.Default().Histogram("atm_engine_step_wait_seconds",
		"Time a ready step waited for a scheduler slot (ready to dispatched).", nil)
	stepPanics = obs.Default().Counter("atm_engine_step_panics_total",
		"Engine steps that panicked; the window is skipped and the box's pipeline rebuilt.")
)

// Config parameterizes the engine.
type Config struct {
	// Core is the per-box pipeline configuration (train/horizon
	// windows, thresholds, model reuse policy, degraded mode).
	Core core.Config
	// SamplesPerDay seeds the default temporal model's seasonal
	// period.
	SamplesPerDay int
	// Workers is the engine-wide bound on concurrent step computations,
	// across all shards; <= 0 uses one per core. A step's own model
	// phase runs on its slot's goroutine; Core.Workers is not read.
	Workers int
	// Backend, when non-nil, is the actuation target plans are pushed
	// to through the transactional core.ApplyBox (snapshot, apply,
	// rollback on partial failure) — the cgroups-daemon client, the
	// testbed simulator, or any other actuator.Backend (wrap it in
	// actuator.NewResilientBackend for retry + circuit breaking first).
	// The serve layer also reads current limits through it to build
	// what-if plans. A nil Backend leaves the engine plan-only.
	Backend actuator.Backend
	// Policy, when non-nil, applies the operator's min/max/step clamps
	// and write rate limits (actuator/policy) in front of Backend
	// before any write. Requires Backend.
	Policy *policy.Config
	// DryRun keeps the engine plan-only even with a Backend
	// configured: every plan publishes, the what-if route works, and
	// nothing is ever written to the actuation target.
	DryRun bool
	// Poll is the fallback scan interval used when no ingest
	// notification arrives; <= 0 selects one second.
	Poll time.Duration
	// Tracer, when non-nil, links every engine step to the ingest span
	// that made its box dirty: one "engine.step" span per step, parented
	// under the server's ingest span, with the trace id published on the
	// Plan. A nil Tracer keeps the step path zero-overhead.
	Tracer *obs.Tracer
	// Events, when non-nil, receives a typed decision event for every
	// step outcome (plan published, window evicted, hard step failure,
	// actuation failure). A nil Events keeps the step path
	// zero-overhead.
	Events *obs.EventLog
	// Control configures the trust-parameterized robust controller:
	// when Enabled, every non-degraded plan is blended toward the
	// stingy worst-case-safe allocation under a per-box trust λ adapted
	// from the scoring board's rolling forecast error (see
	// internal/control). The zero value leaves plans untouched — and a
	// controller pinned at λ=1 publishes bit-identical plans to a
	// controller-free engine.
	Control control.Config
}

// Plan is the engine's published outcome of a box's most recent step:
// the per-VM capacities ATM wants for the next resizing window plus
// the evaluation of the step that produced them.
type Plan struct {
	// Box is the box id.
	Box string `json:"box"`
	// Step is the zero-based resizing-window index.
	Step int `json:"step"`
	// CPUSizes and RAMSizes are the per-VM target capacities, in the
	// registered VM order.
	CPUSizes []float64 `json:"cpu_sizes"`
	RAMSizes []float64 `json:"ram_sizes"`
	// TicketsBefore and TicketsAfter aggregate CPU+RAM tickets over
	// the step's evaluation horizon.
	TicketsBefore int `json:"tickets_before"`
	TicketsAfter  int `json:"tickets_after"`
	// MeanMAPE is the box-level mean prediction error of the step
	// (NaN serializes as 0 for degraded boxes).
	MeanMAPE float64 `json:"mean_mape"`
	// Research reports whether the step ran a full signature search;
	// Reason is the decision cause (a core.Reason* constant).
	Research bool   `json:"research"`
	Reason   string `json:"reason,omitempty"`
	// Degraded marks a stingy-fallback plan.
	Degraded bool `json:"degraded"`
	// Lambda is the forecast trust the robust controller blended this
	// plan with (1 = pure forecast, 0 = pure reactive peak-demand);
	// BlendReason is the control.Reason* constant behind it. Both are
	// zero when the controller is disabled — Lambda is meaningful only
	// when BlendReason is set.
	Lambda      float64 `json:"lambda,omitempty"`
	BlendReason string  `json:"blend_reason,omitempty"`
	// Shard and Pass locate the scheduling pass that produced the plan.
	Shard int    `json:"shard"`
	Pass  uint64 `json:"pass,omitempty"`
	// TraceID is the step's span-tree id ("" with tracing off).
	TraceID string `json:"trace_id,omitempty"`
	// UpdatedAt is when the step finished.
	UpdatedAt time.Time `json:"updated_at"`
}

// boxRun is the engine's mutable per-box state. state, steps, prepared,
// plan, decision, lastErr, ctx and pass are guarded by the shard lock;
// ahead, ready and due by the shard lock and, while the box is on the
// ready queue, the scheduler's as well; everything else belongs to
// whoever holds the box out of idle (see boxState).
type boxRun struct {
	id       string
	shard    int
	pipe     *core.Pipeline
	steps    int       // rolling steps fired so far
	wb       trace.Box // window box, reused so a steady-state pass allocates nothing
	plan     *Plan
	decision core.Decision // research/refit choice of the last plan step
	lastErr  error
	compute  time.Duration // slot time of the last model phase, with its step or ahead of it: the next one's estimate

	// A box whose step has published runs the next step's model phase at
	// once, in a slot no due step wants: ahead marks that pending work,
	// prepared that pipe holds the finished phase (or panicked holds what
	// it died of) and the step, when its actuals land, need only finish.
	ahead    bool
	prepared bool
	panicked error

	state boxState
	ctx   context.Context // of the pass that queued the box
	pass  uint64          // of the pass that found the pending step due
	ready time.Time       // when the pending work was found ready
	due   time.Time       // ready + estimate: the ready queue's key
	seq   uint64          // the ready queue's tie-break
	pos   int             // 1 + index on the ready queue, 0 off it
}

// engineShard is one scheduler loop's private state: the boxes owned
// by the matching store shard plus the pass scratch buffers. passMu
// serializes scheduling passes on the shard (Run's per-shard loop and
// any direct Sync/SyncShard calls).
type engineShard struct {
	mu    sync.Mutex
	boxes map[string]*boxRun
	busy  int       // boxes not idle
	quiet sync.Cond // on mu: busy fell to zero

	passMu   sync.Mutex
	pass     uint64 // scheduling passes completed on this shard (under passMu)
	ids      []string
	readyBuf []*boxRun

	lagIDs []string // boxes of the last pass (under Engine.lagMu)
	lag    int      // largest backlog among them (under Engine.lagMu)
}

// quiesce blocks until no box of the shard has a step pending.
func (sh *engineShard) quiesce() {
	sh.mu.Lock()
	for sh.busy > 0 {
		sh.quiet.Wait()
	}
	sh.mu.Unlock()
}

// Engine schedules rolling pipeline steps over a state store.
type Engine struct {
	store *state.Store
	cfg   Config
	// write is the policy-guarded Backend plans are applied through;
	// nil when the engine is plan-only or DryRun.
	write actuator.Backend

	shards   []engineShard
	passHist []*obs.Histogram // per-shard pass timer, resolved once (With allocates)

	// sched is the step scheduler every shard's steps go through.
	// computeNs over computeSeries is the running mean compute time per
	// series, the estimate for a box's first step.
	sched         sched
	computeNs     atomic.Int64
	computeSeries atomic.Int64

	lagMu sync.Mutex // guards every shard's lag and the gauge derived from them

	// board scores every published plan against realized demand; always
	// on — the scorecard is part of the engine's contract, not optional
	// instrumentation.
	board *score.Board

	// ctl is the trust-parameterized robust controller (nil unless
	// Config.Control.Enabled).
	ctl *control.Controller

	// running counts live Run scheduler loops, one per shard; the
	// readiness probe requires all of them.
	running atomic.Int32

	// visit, set only by Replay, sees every step's outcome after it is
	// published, while its result is still valid: the plan, or one
	// holding only the box and step with a nil result when the window
	// produced none.
	visit func(p *Plan, res *core.BoxResult, err error)
}

// New validates the configuration and returns an engine over the
// store, mirroring the store's shard layout. The store's retention
// must cover at least one pipeline window (TrainWindows + Horizon).
func New(store *state.Store, cfg Config) (*Engine, error) {
	if store == nil {
		return nil, errors.New("engine: nil store")
	}
	if _, err := core.NewPipeline(cfg.SamplesPerDay, cfg.Core); err != nil {
		return nil, err
	}
	if need := cfg.Core.TrainWindows + cfg.Core.Horizon; store.History() < need {
		return nil, fmt.Errorf("engine: store retains %d samples, pipeline window needs %d",
			store.History(), need)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	// Compose the write path: policy rails wrap Backend, so every write
	// — engine apply or rollback — passes the same clamps. DryRun severs
	// the write path entirely while keeping Backend readable for
	// what-if plans.
	if cfg.Policy != nil && cfg.Backend == nil {
		return nil, errors.New("engine: Policy requires Backend")
	}
	var write actuator.Backend
	if cfg.Backend != nil && !cfg.DryRun {
		write = cfg.Backend
		if cfg.Policy != nil {
			write = policy.NewGuard(write, *cfg.Policy)
		}
	}
	e := &Engine{
		store:    store,
		cfg:      cfg,
		write:    write,
		shards:   make([]engineShard, store.Shards()),
		passHist: make([]*obs.Histogram, store.Shards()),
		sched:    sched{slots: parallel.ResolveWorkers(math.MaxInt, cfg.Workers), lastAppend: store.LastAppend},
		board:    score.NewBoard(store.Shards(), cfg.Core),
	}
	e.sched.start = e.run
	if cfg.Control.Enabled {
		e.ctl = control.New(store.Shards(), cfg.Control)
	}
	for i := range e.shards {
		e.shards[i].boxes = make(map[string]*boxRun)
		e.shards[i].quiet.L = &e.shards[i].mu
		e.passHist[i] = passSeconds.With(strconv.Itoa(i))
	}
	return e, nil
}

// Run drives the scheduler until ctx is cancelled: one goroutine per
// store shard queues every step that is due on its shard, then sleeps
// on the shard's ingest notification (with the Poll ticker as a
// fallback); the steps run on the scheduler's goroutines. In-flight
// steps always complete before Run returns — cancellation stops queued
// steps from starting, giving the graceful drain the service layer
// relies on. The returned error is ctx.Err().
func (e *Engine) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.running.Add(1)
			defer e.running.Add(-1)
			defer e.shards[i].quiesce()
			ticker := time.NewTicker(e.cfg.Poll)
			defer ticker.Stop()
			for {
				e.pass(ctx, i, false)
				select {
				case <-ctx.Done():
					return
				case <-e.store.NotifyShard(i):
				case <-ticker.C:
				}
			}
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// Sync performs one scheduling pass over every shard synchronously:
// each shard's dirty boxes with at least Horizon unconsumed samples
// past their training window are stepped to completion. It returns
// once all fired steps have finished, making it the deterministic
// entry point for replay tests.
func (e *Engine) Sync(ctx context.Context) {
	for i := range e.shards {
		e.SyncShard(ctx, i)
	}
}

// SyncShard performs one scheduling pass over shard i and returns once
// every step the pass made due has published (and no other step of the
// shard is pending). With one slot or one due box the steps run on the
// calling goroutine.
func (e *Engine) SyncShard(ctx context.Context, i int) {
	e.pass(ctx, i, true)
	e.shards[i].quiesce()
}

// pass is one scheduling pass over shard i: it drains the shard's dirty
// set and queues the idle boxes whose next window is complete, without
// waiting for their steps. A direct pass with work for one slot only
// steps it inline instead: goroutines cost allocations the zero-alloc
// steady state can't afford, and buy nothing for a single slot or a
// single due box. Passes on one shard are serialized; passes on
// distinct shards run concurrently.
func (e *Engine) pass(ctx context.Context, i int, direct bool) {
	sh := &e.shards[i]
	sh.passMu.Lock()
	defer sh.passMu.Unlock()
	sh.pass++
	start := time.Now()
	sh.ids = e.store.DrainDirty(i, sh.ids[:0])
	ready := sh.readyBuf[:0]
	for _, id := range sh.ids {
		if ctx.Err() != nil {
			break
		}
		// The steps count as ready from the pass's start: no earlier than
		// the appends that completed their windows.
		if br := e.claim(ctx, sh.pass, sh, i, id, start); br != nil {
			ready = append(ready, br)
		}
	}
	inspectedBoxes.Add(float64(len(sh.ids)))
	sh.readyBuf = ready
	if len(ready) > 1 {
		// The pass offers its cheapest box first.
		slices.SortStableFunc(ready, func(a, b *boxRun) int { return a.due.Compare(b.due) })
	}
	inline := direct && min(e.sched.slots, len(ready)) == 1
	for _, br := range ready {
		if inline && e.sched.tryAcquire(br) {
			e.run(br)
		} else {
			e.sched.push(br)
		}
	}
	e.updateLag(sh, sh.ids)
	e.passHist[i].Observe(obs.Since(start))
}

// need returns the total sample count required before step k can fire:
// the training window plus k+1 horizons (the step is evaluated against
// its horizon's actuals).
func (e *Engine) need(steps int) int {
	return e.cfg.Core.TrainWindows + (steps+1)*e.cfg.Core.Horizon
}

// Need reports how many total samples a box must have ingested before
// rolling step k fires — e.g. Need(0) is the sample count the first
// plan requires.
func (e *Engine) Need(step int) int { return e.need(step) }

// shardOf returns the engine shard owning the box id.
func (e *Engine) shardOf(id string) *engineShard {
	return &e.shards[e.store.ShardOf(id)]
}

// claim looks at the box on behalf of a scheduling pass (its context
// and number) or of the box's own work just finished (that work's). An
// idle box whose next window is complete is queued for its step, ready at
// now; an idle box that has planned before and does not hold its next
// step's model phase is queued to run it ahead — the training window of
// step k is complete the moment step k-1 is, a whole horizon before the
// step. Either is returned for the caller to push. A box queued for or
// running that phase whose window has completed meanwhile becomes a due
// step where it is. Anything else is left alone.
func (e *Engine) claim(ctx context.Context, pass uint64, sh *engineShard, shard int, id string, now time.Time) *boxRun {
	total, err := e.store.Total(id)
	if err != nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	br := sh.boxes[id]
	if br == nil {
		if total < e.need(0) {
			return nil
		}
		br = &boxRun{id: id, shard: shard, pipe: e.newPipeline()}
		sh.boxes[id] = br
	}
	due := total >= e.need(br.steps)
	switch {
	case due && br.state != idle && br.ahead:
		br.pass = pass
		var cost time.Duration
		if br.state == queued { // running, the phase is under way and br its goroutine's
			cost = e.estimate(br)
		}
		e.sched.promote(br, now, cost)
		return nil
	case br.state != idle, !due && (br.steps == 0 || br.prepared):
		return nil
	}
	sh.busy++
	br.state, br.ahead = queued, !due
	br.ctx, br.pass = ctx, pass
	br.ready, br.due = now, now
	if !br.prepared {
		br.due = now.Add(e.estimate(br))
	}
	return br
}

// newPipeline builds a box's pipeline; New validated the config.
func (e *Engine) newPipeline() *core.Pipeline {
	pipe, err := core.NewPipeline(e.cfg.SamplesPerDay, e.cfg.Core)
	if err != nil {
		panic(fmt.Sprintf("engine: pipeline for validated config: %v", err))
	}
	return pipe
}

// estimate is the compute time the scheduler expects of the box's next
// step: what its previous step took, or before its first step the
// engine's mean compute time per series times the box's series count —
// zero, and so arrival order, until some step has finished.
func (e *Engine) estimate(br *boxRun) time.Duration {
	if br.compute > 0 {
		return br.compute
	}
	series := e.computeSeries.Load()
	if series == 0 {
		return 0
	}
	meta, err := e.store.Meta(br.id)
	if err != nil {
		return 0
	}
	return time.Duration(e.computeNs.Load() / series * int64(2*len(meta.VMs)))
}

// run does a queued box's pending work and whatever that makes ready —
// the next step if the box is behind, else the next step's model phase;
// it is entered with a slot held. The box goes back on the queue for
// each — or straight on, when a slot is open, which it only is while the
// queue is empty.
func (e *Engine) run(br *boxRun) {
	for e.step(br); e.settle(br); e.step(br) {
		if !e.sched.tryAcquire(br) {
			e.sched.push(br)
			return
		}
	}
}

// settle ends a box's work and reports whether the box is queued again.
// The box goes idle before that look at the store, so an append whose
// pass found the box busy, and skipped it, is never lost: it landed
// before this look. The box stays counted busy until the end, so the
// shard never reads as quiet in between.
func (e *Engine) settle(br *boxRun) bool {
	sh := &e.shards[br.shard]
	sh.mu.Lock()
	br.state = idle
	ctx, pass := br.ctx, br.pass
	sh.mu.Unlock()
	// Cancelled: nothing further starts.
	again := ctx.Err() == nil && e.claim(ctx, pass, sh, br.shard, br.id, time.Now()) != nil
	sh.mu.Lock()
	sh.busy--
	drained := sh.busy == 0
	sh.mu.Unlock()
	if drained {
		e.updateLag(sh, nil)
		sh.quiet.Broadcast()
	}
	return again
}

// step does the queued box's pending work in the scheduler slot it was
// dispatched into: the model phase of its next step when that is all
// that can run yet, the step itself when its window is complete — and
// both, one after the other, when the window completes while the phase
// is running. Until settle, br's unguarded fields are this goroutine's.
func (e *Engine) step(br *boxRun) {
	sh := &e.shards[br.shard]
	sh.mu.Lock()
	br.state = running
	ctx, ahead, ready := br.ctx, br.ahead, br.ready
	sh.mu.Unlock()
	if ctx.Err() != nil {
		// Cancelled while queued: the work does not start.
		e.sched.dispatch(1)
		return
	}
	dispatched := time.Now()
	stepsInflight.Inc()
	if ahead {
		span := e.startSpan(br, "engine.model")
		from := br.steps * e.cfg.Core.Horizon
		// A window that cannot be read is left for the step to report.
		timed := br
		if e.store.WindowInto(br.id, from, from+e.cfg.Core.TrainWindows, &br.wb) == nil {
			_, err := e.pipeline(ctx, br, true)
			span.SetAttr("failed", err != nil)
		} else {
			timed = nil
		}
		span.End()
		sh.mu.Lock()
		ahead, ready = br.ahead, br.ready
		br.ahead, br.prepared = false, ahead
		sh.mu.Unlock()
		if ahead {
			e.release(timed, dispatched, 2*len(br.wb.VMs))
			return
		}
		// The window completed meanwhile: on with the step, in this slot.
	}
	e.finish(ctx, br, dispatched, ready)
}

// startSpan opens the span a box's work runs under. With tracing on it
// is linked to the ingest span that last touched the box: one trace from
// HTTP ingest to plan publish. It is one standalone span: the pipeline
// stays on the bare context, so no per-stage spans are emitted. The
// nil-Tracer path touches none of this and stays allocation-free.
func (e *Engine) startSpan(br *boxRun, name string) *obs.Span {
	if e.cfg.Tracer == nil {
		return nil
	}
	tid, sid, _ := e.store.IngestTrace(br.id)
	span := e.cfg.Tracer.LinkedSpan(name, tid, sid)
	span.SetAttr("box", br.id)
	span.SetAttr("shard", br.shard)
	span.SetAttr("step", br.steps)
	return span
}

// finish fires the box's due step. It holds the scheduler slot from the
// window read through scoring — the part that computes — and gives it
// back before the plan is pushed to the backend and published, so
// neither backend I/O nor a box catching up keeps a core from the other
// boxes. Publication of the plan takes the shard lock.
func (e *Engine) finish(ctx context.Context, br *boxRun, dispatched, ready time.Time) {
	id, shard := br.id, br.shard
	sh := &e.shards[shard]
	stepWaitSeconds.Observe(time.Since(ready).Seconds())
	span := e.startSpan(br, "engine.step")
	traceID := span.TraceID()
	// The slot's time is the box's next estimate only if a model phase
	// ran in it: a step that merely finishes a prepared one says nothing
	// about what the next step will cost.
	timed := br
	if br.prepared {
		timed = nil
	}
	from := br.steps * e.cfg.Core.Horizon
	to := e.need(br.steps)
	wb := &br.wb
	if err := e.store.WindowInto(id, from, to, wb); err != nil {
		// The window cannot be read — almost always because ingest outran
		// the planner past retention and it is gone. Skip forward one step
		// rather than stalling the box forever.
		e.release(nil, dispatched, 0)
		span.End()
		event := "step_error"
		if errors.Is(err, timeseries.ErrEvicted) {
			evictedSteps.Inc()
			event = "evicted"
		}
		e.skip(sh, br, event, traceID, err)
		return
	}
	res, err := e.pipeline(ctx, br, false)
	stepsTotal.Inc()
	if err != nil {
		stepErrors.Inc()
	}
	if res == nil {
		// Un-degradable failure (bad config never reaches here, so this
		// is a hard model error with Degraded off, or a panic): record it
		// and advance past the window instead of re-failing forever.
		e.release(nil, dispatched, 0)
		span.End()
		e.skip(sh, br, "step_error", traceID, err)
		return
	}
	// Robust control: judge the forecast on what the board had seen
	// BEFORE this step plus this step's own realized error, then blend
	// the plan toward the stingy safe allocation under the resulting
	// trust. Runs before scoring (the board must score the published
	// sizes) and before actuation.
	var ctlDec control.Decision
	if e.ctl != nil {
		o := control.Observation{
			Degraded:    res.Degraded,
			SevereDrift: br.pipe.SevereDrift(),
		}
		o.RollingMAPE, o.RollingN, _ = e.board.MAPE(id)
		if m := res.MeanMAPE(); !math.IsNaN(m) && !math.IsInf(m, 0) {
			o.StepMAPE, o.HaveStep = m, true
		}
		ctlDec = e.ctl.Update(id, shard, o)
		e.ctl.Blend(id, shard, wb, res, e.cfg.Core, ctlDec.Lambda)
	}
	// Score the step against realized demand before publication: the
	// scorecard is always on and allocation-free after the first step.
	e.board.Observe(id, shard, res)
	e.release(timed, dispatched, 2*len(wb.VMs))
	step := br.steps
	var applyErr error
	if e.write != nil && !res.Degraded {
		applyErr = core.ApplyBox(ctx, e.write, res)
	}
	dec := br.pipe.LastDecision()
	sh.mu.Lock()
	pass := br.pass
	br.advance()
	if br.plan == nil {
		br.plan = &Plan{}
	}
	deltaVMs := planDelta(br.plan, res)
	planInto(br.plan, id, step, res, dec, shard, pass, traceID)
	if e.ctl != nil {
		br.plan.Lambda, br.plan.BlendReason = ctlDec.Lambda, ctlDec.Reason
	}
	br.decision = dec
	br.lastErr = err
	if applyErr != nil {
		// The plan still publishes; the box's last error carries the
		// actuation failure beside the step's own.
		br.lastErr = errors.Join(err, applyErr)
	}
	sh.mu.Unlock()
	span.End()
	if e.cfg.Events != nil {
		ev := obs.Event{
			Type: "plan", Box: id, Shard: shard, Pass: pass, Step: step,
			Research: dec.Research, Reason: dec.Reason,
			Degraded:      res.Degraded,
			TicketsBefore: res.CPU.TicketsBefore + res.RAM.TicketsBefore,
			TicketsAfter:  res.CPU.TicketsAfter + res.RAM.TicketsAfter,
			DeltaVMs:      deltaVMs,
			TraceID:       traceID,
		}
		if m := res.MeanMAPE(); m == m { // NaN-safe for degraded boxes
			ev.MeanMAPE = m
		}
		if e.ctl != nil {
			ev.Lambda, ev.BlendReason = ctlDec.Lambda, ctlDec.Reason
		}
		if applyErr != nil {
			ev.Err = applyErr.Error()
		}
		e.cfg.Events.Publish(ev)
		if applyErr != nil {
			e.cfg.Events.Publish(obs.Event{
				Type: "apply_error", Box: id, Shard: shard, Pass: pass,
				Step: step, TraceID: traceID, Err: applyErr.Error(),
			})
		}
	}
	if e.visit != nil {
		e.visit(br.plan, res, errors.Join(err, applyErr))
	}
}

// pipeline runs the box's pipeline over its window box: the next step's
// model phase alone (ahead), or the step — which only finishes when the
// pipeline holds that phase for this very window, and computes it first
// when it does not. A panic costs that window only: it comes back as the
// step's error — held until the step is due when it happened ahead — and
// the box gets a fresh pipeline; the old one's arena may be half-written.
func (e *Engine) pipeline(ctx context.Context, br *boxRun, ahead bool) (res *core.BoxResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			stepPanics.Inc()
			br.pipe = e.newPipeline()
			res, err = nil, fmt.Errorf("engine: step panicked: %v", p)
			if ahead {
				br.panicked = err
			}
		}
	}()
	switch {
	case ahead:
		return nil, br.pipe.Prepare(ctx, &br.wb)
	case br.panicked != nil:
		return nil, br.panicked
	}
	return br.pipe.StepInto(ctx, &br.wb)
}

// advance moves the box to its next window; callers hold the shard lock.
// Whatever was prepared was prepared for the window left behind.
func (br *boxRun) advance() {
	br.steps++
	br.prepared, br.panicked = false, nil
}

// skip advances the box past a window that produced no plan.
func (e *Engine) skip(sh *engineShard, br *boxRun, event, traceID string, err error) {
	sh.mu.Lock()
	step, pass := br.steps, br.pass
	br.advance()
	br.lastErr = err
	sh.mu.Unlock()
	if e.cfg.Events != nil {
		ev := obs.Event{
			Type: event, Box: br.id, Shard: br.shard, Pass: pass,
			Step: step, TraceID: traceID,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		e.cfg.Events.Publish(ev)
	}
	if e.visit != nil {
		e.visit(&Plan{Box: br.id, Step: step, Shard: br.shard, Pass: pass, TraceID: traceID}, nil, err)
	}
}

// release gives back the slot a box's work was dispatched into. Work
// that ran a model phase to its end passes its box and series count: its
// slot time becomes the box's next estimate and joins the engine's mean
// per series.
func (e *Engine) release(br *boxRun, dispatched time.Time, series int) {
	stepsInflight.Dec()
	if br != nil {
		br.compute = time.Since(dispatched)
		e.computeNs.Add(int64(br.compute))
		e.computeSeries.Add(int64(series))
	}
	e.sched.dispatch(1)
}

// planDelta counts VMs whose CPU or RAM target changes between the
// box's previous published plan and the new result — the full VM
// count on the first plan. Callers hold the shard lock.
func planDelta(prev *Plan, res *core.BoxResult) int {
	if len(prev.CPUSizes) != len(res.CPU.Sizes) || len(prev.RAMSizes) != len(res.RAM.Sizes) {
		return len(res.CPU.Sizes)
	}
	n := 0
	for i := range res.CPU.Sizes {
		if prev.CPUSizes[i] != res.CPU.Sizes[i] || prev.RAMSizes[i] != res.RAM.Sizes[i] {
			n++
		}
	}
	return n
}

// planInto flattens a BoxResult into the box's published Plan,
// reusing its size buffers. Callers hold the shard lock: Plan(id)
// copies out of the same storage.
func planInto(p *Plan, id string, step int, res *core.BoxResult, dec core.Decision, shard int, pass uint64, traceID string) {
	p.Box = id
	p.Step = step
	p.CPUSizes = append(p.CPUSizes[:0], res.CPU.Sizes...)
	p.RAMSizes = append(p.RAMSizes[:0], res.RAM.Sizes...)
	p.TicketsBefore = res.CPU.TicketsBefore + res.RAM.TicketsBefore
	p.TicketsAfter = res.CPU.TicketsAfter + res.RAM.TicketsAfter
	p.MeanMAPE = 0
	if m := res.MeanMAPE(); m == m { // NaN-safe for degraded boxes
		p.MeanMAPE = m
	}
	p.Research = dec.Research
	p.Reason = dec.Reason
	p.Degraded = res.Degraded
	p.Lambda, p.BlendReason = 0, "" // controller-owned; set by the caller when enabled
	p.Shard = shard
	p.Pass = pass
	p.TraceID = traceID
	p.UpdatedAt = time.Now()
}

// updateLag records the largest ingest backlog — samples landed but
// not yet consumed by a fired step — among the boxes of the shard's
// latest pass, and publishes the largest such figure over all shards, so
// an idle shard's pass cannot hide a lagging shard's backlog. Untouched
// boxes have no new samples, so their backlog cannot have grown since
// they were last visited. A pass hands in the boxes it visited; when the
// steps it queued have settled they are measured again (ids nil), so the
// gauge falls once the backlog is consumed.
func (e *Engine) updateLag(sh *engineShard, ids []string) {
	e.lagMu.Lock()
	defer e.lagMu.Unlock()
	if ids != nil {
		sh.lagIDs = append(sh.lagIDs[:0], ids...)
	}
	maxLag := 0
	for _, id := range sh.lagIDs {
		total, err := e.store.Total(id)
		if err != nil {
			continue
		}
		sh.mu.Lock()
		steps := 0
		if br := sh.boxes[id]; br != nil {
			steps = br.steps
		}
		sh.mu.Unlock()
		maxLag = max(maxLag, total-(e.cfg.Core.TrainWindows+steps*e.cfg.Core.Horizon))
	}
	sh.lag = maxLag
	for i := range e.shards {
		maxLag = max(maxLag, e.shards[i].lag)
	}
	lagGauge.Set(float64(maxLag))
}

// Plan returns the latest published plan for the box, or false when
// no step has completed yet. The returned Plan owns its size slices —
// it stays valid after later steps overwrite the box's internal plan.
func (e *Engine) Plan(id string) (Plan, bool) {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	br := sh.boxes[id]
	if br == nil || br.plan == nil {
		return Plan{}, false
	}
	p := *br.plan
	p.CPUSizes = append([]float64(nil), br.plan.CPUSizes...)
	p.RAMSizes = append([]float64(nil), br.plan.RAMSizes...)
	return p, true
}

// Backend returns the configured actuation backend, or nil when the
// engine runs plan-only. The serve layer uses it to answer what-if
// queries; writes go through the policy-guarded transactional path
// composed in New.
func (e *Engine) Backend() actuator.Backend { return e.cfg.Backend }

// PolicyConfig returns the policy rails in force and whether any were
// configured.
func (e *Engine) PolicyConfig() (policy.Config, bool) {
	if e.cfg.Policy == nil {
		return policy.Config{}, false
	}
	return *e.cfg.Policy, true
}

// Steps returns how many rolling steps have fired for the box.
func (e *Engine) Steps(id string) int {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if br := sh.boxes[id]; br != nil {
		return br.steps
	}
	return 0
}

// Scores returns the engine's forecast scoring board.
func (e *Engine) Scores() *score.Board { return e.board }

// RunningShards returns how many Run scheduler loops are currently
// live — equal to the store's shard count when the engine is fully
// running, 0 when Run has not started or has drained.
func (e *Engine) RunningShards() int { return int(e.running.Load()) }

// BoxDebug is the engine's step-state snapshot for one box, the core
// of the GET /v1/boxes/{id}/debug payload.
type BoxDebug struct {
	// Box is the box id; Shard is the store/engine shard owning it.
	Box   string `json:"box"`
	Shard int    `json:"shard"`
	// Steps counts fired rolling steps.
	Steps int `json:"steps"`
	// State is the box's scheduler state: idle, queued or running —
	// preparing while the work queued or running is its next step's model
	// phase ahead of time, prepared once it idles holding that phase.
	State string `json:"state"`
	// Plan is the latest published plan (nil before the first step).
	Plan *Plan `json:"plan,omitempty"`
	// Decision is the research/refit choice behind that plan.
	Decision core.Decision `json:"decision"`
	// LastErr is the most recent step/apply error ("" when clean).
	LastErr string `json:"last_err,omitempty"`
}

// Debug returns the box's step-state snapshot, reporting false when
// the engine has never seen the box.
func (e *Engine) Debug(id string) (BoxDebug, bool) {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	br := sh.boxes[id]
	if br == nil {
		return BoxDebug{}, false
	}
	d := BoxDebug{
		Box:      id,
		Shard:    e.store.ShardOf(id),
		Steps:    br.steps,
		State:    br.describe(),
		Decision: br.decision,
	}
	if br.lastErr != nil {
		d.LastErr = br.lastErr.Error()
	}
	if br.plan != nil {
		p := *br.plan
		p.CPUSizes = append([]float64(nil), br.plan.CPUSizes...)
		p.RAMSizes = append([]float64(nil), br.plan.RAMSizes...)
		d.Plan = &p
	}
	return d, true
}
