package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/resize"
	"atm/internal/spatial"
	"atm/internal/ticket"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// stepArena owns the buffers a pipeline step leaves its results in, so
// a steady-state StepInto performs zero heap allocations: demand
// series, training headers, per-signature temporal models and forecast
// buffers, reconstruction output, and the sizes each resource's solve
// chose. The solves' working state is pooled (solveScratch), not kept
// per box. Buffers grow on demand (the first step over a box shape
// allocates) and are reused verbatim afterwards.
type stepArena struct {
	demands []timeseries.Series // arena-owned demand series, SeriesIndex order
	train   []timeseries.Series // training-window views of demands
	peaks   []float64
	models  []predict.IntoForecaster // retained temporal model per signature slot
	sigFC   []timeseries.Series      // per-signature forecast buffers
	recon   []timeseries.Series      // reconstruction output, arena-owned backing
	sizes   [2][]float64             // per-VM sizes each resource's solve chose
	runs    [2]BoxRun
	pred    BoxPrediction
	result  BoxResult
}

// demandsInto fills the arena's demand series from the box: usage
// percent times allocated capacity over 100, element for element the
// same arithmetic as trace.VM.Demand (which allocates a fresh series
// per call). With keep > 0 it also reports whether the first keep
// samples of every series were in the arena already, bit for bit —
// whether the window's training part is the one the arena was last
// filled from.
func (a *stepArena) demandsInto(b *trace.Box, keep int) (out []timeseries.Series, kept bool) {
	n := len(b.VMs) * trace.NumResources
	for len(a.demands) < n {
		a.demands = append(a.demands, nil)
	}
	out = a.demands[:n]
	kept = keep > 0
	for v := range b.VMs {
		vm := &b.VMs[v]
		for _, r := range [...]trace.Resource{trace.CPU, trace.RAM} {
			usage := vm.Usage(r)
			f := vm.Capacity(r) / 100
			i := trace.SeriesIndex(v, r)
			dst := out[i]
			have := min(keep, len(dst))
			kept = kept && have == keep
			if cap(dst) < len(usage) {
				dst = make(timeseries.Series, len(usage))
				copy(dst, out[i][:have])
			}
			dst = dst[:len(usage)]
			for j, u := range usage {
				d := u * f
				if j < have && math.Float64bits(dst[j]) != math.Float64bits(d) {
					kept = false
				}
				dst[j] = d
			}
			out[i] = dst
		}
	}
	return out, kept
}

// growFloats returns dst resized to n, reusing its backing when
// capacity allows.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// rollModel attempts the incremental O(p²)-per-sample model update for
// a reuse step: if the training window is the previous one rolled
// forward by Horizon, the retained Roller updates the factorization and
// refits every dependent in place without allocating. A non-roll
// window or a numerical breakdown drops the roller; the caller falls
// back to the reference refit and rebuilds it.
func (p *Pipeline) rollModel(train []timeseries.Series) *spatial.Model {
	if p.roller == nil {
		return nil
	}
	if err := p.roller.Roll(train, p.cfg.Horizon); err != nil {
		rollerRebuilds.Inc()
		p.roller = nil
		return nil
	}
	rollerRolls.Inc()
	return p.roller.Model()
}

// adoptRoller rebuilds the incremental roller over the window the
// model was just fitted on. A build rejection (ill-conditioned window)
// leaves the roller nil, keeping later reuse steps on the reference
// refit path.
func (p *Pipeline) adoptRoller(train []timeseries.Series, model *spatial.Model) {
	if !p.cfg.Reuse.Enabled {
		p.roller = nil
		return
	}
	r, err := spatial.NewRoller(train, model)
	if err != nil {
		p.roller = nil
		return
	}
	p.roller = r
}

// searchInto produces the spatial model for the training window: a
// full signature search when reuse is off, no set is retained yet,
// drift was flagged, or the retained set aged out; otherwise a cheap
// refit of the retained signature set — by the incremental roller when
// the window rolled the previous one, by the allocating reference
// refit (spatial.RefitContext) when it did not. A refit that fails
// (e.g. the retained indices no longer span the window) falls back to
// a full search rather than surfacing the error.
func (p *Pipeline) searchInto(ctx context.Context, train []timeseries.Series) (*spatial.Model, error) {
	reuse := p.cfg.Reuse
	research, reason := p.planDecision()
	age := p.age
	searchStart := time.Now()
	var model *spatial.Model
	var err error
	if !research {
		model = p.rollModel(train)
		if model == nil {
			m, rerr := spatial.RefitContext(ctx, train, p.sigs)
			if rerr != nil {
				research = true
				reason = ReasonRefitFailed
			} else {
				model = m
				p.adoptRoller(train, m)
			}
		}
	}
	if research {
		model, err = spatial.SearchContext(ctx, train, p.cfg.Spatial)
		if err == nil {
			p.adoptRoller(train, model)
		}
	}
	searchSeconds.Observe(time.Since(searchStart).Seconds())
	if err != nil {
		return nil, fmt.Errorf("core: signature search: %w", err)
	}
	if research {
		researchTotal.Inc()
		p.sigs = append([]int(nil), model.Signatures...)
		p.age = 0
		p.haveBase = false
		p.driftStreak = 0
		p.researchNext = false
		p.researchCause = ""
	} else {
		refitTotal.Inc()
		p.age++
		// R²-based drift check: dependents the retained signature set
		// can no longer explain flag the next step for a re-search.
		if reuse.MinR2 > 0 && meanDependentR2(model) < reuse.MinR2 {
			p.researchNext = true
			p.researchCause = ReasonLowR2
		}
	}
	p.lastDecision = Decision{Research: research, Reason: reason, Age: age}
	return model, nil
}

// fitSig fits the temporal model for signature slot i and forecasts
// into the arena's per-slot buffer. Model instances that support
// ForecastInto are retained across steps (Fit fully resets them);
// others are rebuilt from the factory each step.
func (p *Pipeline) fitSig(model *spatial.Model, train, fc []timeseries.Series, i int) error {
	idx := model.Signatures[i]
	m := p.arena.models[i]
	if m == nil {
		fresh := p.factory()
		into, ok := fresh.(predict.IntoForecaster)
		if !ok {
			if err := fresh.Fit(train[idx]); err != nil {
				return fmt.Errorf("core: fit temporal model for series %d: %w", idx, err)
			}
			out, err := fresh.Forecast(p.cfg.Horizon)
			if err != nil {
				return fmt.Errorf("core: forecast series %d: %w", idx, err)
			}
			fc[i] = out
			return nil
		}
		p.arena.models[i] = into
		m = into
	}
	if err := m.Fit(train[idx]); err != nil {
		return fmt.Errorf("core: fit temporal model for series %d: %w", idx, err)
	}
	out, err := m.ForecastInto(fc[i][:0], p.cfg.Horizon)
	if err != nil {
		return fmt.Errorf("core: forecast series %d: %w", idx, err)
	}
	fc[i] = out
	return nil
}

// temporalInto fits one temporal model per signature series on the
// training window and forecasts Horizon steps ahead into arena
// buffers. Each signature gets its own model instance (models are
// stateful). The fits run in turn on the caller's goroutine, so the
// temporal factory is never called concurrently from within one box.
func (p *Pipeline) temporalInto(ctx context.Context, model *spatial.Model, train []timeseries.Series) ([]timeseries.Series, error) {
	_, tspan := obs.StartSpan(ctx, "core.temporal_fit")
	if tspan != nil {
		tspan.SetAttr("signatures", len(model.Signatures))
	}
	fitStart := time.Now()
	a := &p.arena
	k := len(model.Signatures)
	for len(a.models) < k {
		a.models = append(a.models, nil)
	}
	for len(a.sigFC) < k {
		a.sigFC = append(a.sigFC, nil)
	}
	fc := a.sigFC[:k]
	var err error
	for i := 0; i < k && err == nil; i++ {
		err = p.fitSig(model, train, fc, i)
	}
	temporalFitSeconds.Observe(time.Since(fitStart).Seconds())
	tspan.End()
	if err != nil {
		return nil, err
	}
	return fc, nil
}

// reconstructInto turns the signature forecasts into forecasts for
// every series on the box via the dependents' linear spatial models,
// written into arena-owned series and clamped at zero in place
// (demands are physical quantities).
func (p *Pipeline) reconstructInto(ctx context.Context, model *spatial.Model, sigFC []timeseries.Series) ([]timeseries.Series, error) {
	_, rspan := obs.StartSpan(ctx, "core.reconstruct")
	defer rspan.End()
	a := &p.arena
	for len(a.recon) < model.N {
		a.recon = append(a.recon, nil)
	}
	out, err := model.ReconstructInto(a.recon[:model.N], sigFC)
	if err != nil {
		return nil, fmt.Errorf("core: reconstruct dependents: %w", err)
	}
	for _, s := range out {
		for j, v := range s {
			switch {
			case v < 0:
				s[j] = 0
			case v > maxFloat:
				s[j] = maxFloat
			}
		}
	}
	return out, nil
}

// checkWindow reports whether every demand series has the need samples
// a stage is about to read.
func checkWindow(demands []timeseries.Series, need int) error {
	if len(demands) == 0 {
		return spatial.ErrNoSeries
	}
	for i, d := range demands {
		if len(d) < need {
			return fmt.Errorf("series %d has %d samples, need %d: %w", i, len(d), need, ErrShortTrace)
		}
	}
	return nil
}

// predictInto composes the search, temporal and reconstruction stages
// on the first TrainWindows samples of the demand series, forecasting
// the next Horizon samples for every series; the returned prediction
// is arena-owned.
func (p *Pipeline) predictInto(ctx context.Context, demands []timeseries.Series) (*BoxPrediction, error) {
	ctx, span := obs.StartSpan(ctx, "core.predict")
	defer span.End()
	if span != nil {
		span.SetAttr("series", len(demands))
	}
	a := &p.arena
	for len(a.train) < len(demands) {
		a.train = append(a.train, nil)
	}
	train := a.train[:len(demands)]
	for i, d := range demands {
		train[i] = d.Slice(0, p.cfg.TrainWindows)
	}
	model, err := p.searchInto(ctx, train)
	if err != nil {
		return nil, err
	}
	sigFC, err := p.temporalInto(ctx, model, train)
	if err != nil {
		return nil, err
	}
	all, err := p.reconstructInto(ctx, model, sigFC)
	if err != nil {
		return nil, err
	}
	pred := &a.pred
	pred.Model = model
	pred.Demand = all
	return pred, nil
}

// solveScratch is the working state of one resource solve: the
// problem, its VMs and the solver's candidate sets, hull paths and
// heap. It is pooled, not held per box: a box keeps only the sizes its
// solves chose, so a fleet holds one solveScratch per solve in flight.
type solveScratch struct {
	vms  []resize.VM
	prob resize.Problem
	rs   resize.Scratch
}

var solvePool = sync.Pool{New: func() any { return new(solveScratch) }}

// solveInto solves the resizing problem for one resource of a box from
// its predicted demands; the box's total capacity for the resource is
// the constraint C. It reads the training part of the arena's demands
// (filled by demandsInto) and the box's capacities, never the horizon's
// actuals — countTickets evaluates the sizes against those. The solve
// runs on a pooled solveScratch of its own, so the two resources can
// still solve concurrently; the chosen sizes land in the arena.
func (a *stepArena) solveInto(ctx context.Context, cfg Config, b *trace.Box, pred *BoxPrediction, r trace.Resource) error {
	slot := int(r)
	sc := solvePool.Get().(*solveScratch)
	defer sc.release()
	_, span := obs.StartSpan(ctx, "core.resize")
	defer span.End()
	if span != nil {
		span.SetAttr("resource", r.String())
		span.SetAttr("box", b.ID)
	}
	resizeStart := time.Now()
	defer func() {
		resizeSeconds.Observe(time.Since(resizeStart).Seconds())
	}()
	m := len(b.VMs)
	capacity := b.CPUCapGHz
	if r == trace.RAM {
		capacity = b.RAMCapGB
	}
	if cap(sc.vms) < m {
		sc.vms = make([]resize.VM, m)
	}
	vms := sc.vms[:m]
	var lbSum float64
	for v := 0; v < m; v++ {
		predicted := pred.Demand[trace.SeriesIndex(v, r)]
		lb := 0.0
		if cfg.UseLowerBounds {
			// Peak demand over the training history: satisfied usage
			// cannot spill into the resizing window.
			hist := a.demands[trace.SeriesIndex(v, r)].Slice(0, cfg.TrainWindows)
			lb = hist.Max()
		}
		lbSum += lb
		vms[v] = resize.VM{Demand: predicted, LowerBound: lb}
	}
	if lbSum > capacity {
		// Burst peaks on an overcommitted box can sum past the box
		// capacity; insisting on them would make every allocation
		// infeasible. Scale the floors into the budget instead.
		f := capacity / lbSum * (1 - 1e-9)
		for v := range vms {
			vms[v].LowerBound *= f
		}
	}
	prob := &sc.prob
	*prob = resize.Problem{
		VMs:       vms,
		Capacity:  capacity,
		Threshold: cfg.Threshold,
		Epsilon:   cfg.Epsilon,
	}
	alloc, err := prob.GreedyInto(&sc.rs)
	if err != nil {
		return fmt.Errorf("core: resize %s of %s: %w", r, b.ID, err)
	}

	// Do no harm: if the current allocation already fits the box and
	// is predicted to ticket no more than the optimized one, keep it.
	// Prediction error can otherwise talk the optimizer into shrinking
	// a perfectly healthy box.
	sizes := growFloats(a.sizes[slot], m)
	a.sizes[slot] = sizes
	var curSum float64
	for v := 0; v < m; v++ {
		sizes[v] = b.VMs[v].Capacity(r)
		curSum += sizes[v]
	}
	keep := false
	if curSum <= capacity {
		curTickets, err := prob.Tickets(sizes)
		keep = err == nil && curTickets <= alloc.Tickets
	}
	if !keep {
		copy(sizes, alloc.Sizes)
	}
	a.runs[slot] = BoxRun{Resource: r, Sizes: sizes}
	return nil
}

// release drops the scratch's references into the box it solved for
// and returns it to the pool.
func (sc *solveScratch) release() {
	clear(sc.vms)
	sc.prob = resize.Problem{}
	solvePool.Put(sc)
}

// countTickets evaluates the sizes solveInto chose for the resource
// against the horizon's actual demands (the arena's): tickets under the
// original capacities and under the new sizes.
func (a *stepArena) countTickets(cfg Config, b *trace.Box, r trace.Resource) *BoxRun {
	run := &a.runs[r]
	for v := range b.VMs {
		actual := a.demands[trace.SeriesIndex(v, r)].Slice(cfg.TrainWindows, cfg.TrainWindows+cfg.Horizon)
		run.TicketsBefore += ticket.Count(actual, b.VMs[v].Capacity(r), cfg.Threshold)
		run.TicketsAfter += ticket.Count(actual, run.Sizes[v], cfg.Threshold)
	}
	ticketsBefore.Add(float64(run.TicketsBefore))
	ticketsAfter.Add(float64(run.TicketsAfter))
	return run
}

// model runs the model phase of a step — signature search or refit,
// temporal fits, reconstruction and both resource solves — and holds
// its outcome for finish. The phase reads nothing of the window past
// its first TrainWindows samples, so it can run the moment those are
// complete, a whole horizon before the step's actuals are.
func (p *Pipeline) model(ctx context.Context, b *trace.Box, demands []timeseries.Series) {
	h := &p.held
	h.set, h.id, h.before = true, b.ID, p.reuseState
	h.meta = append(h.meta[:0], b.CPUCapGHz, b.RAMCapGB)
	for v := range b.VMs {
		h.meta = append(h.meta, b.VMs[v].CPUCapGHz, b.VMs[v].RAMCapGB)
	}
	h.pred, h.err = p.predictInto(ctx, demands)
	if h.err != nil {
		h.pred, h.err = nil, fmt.Errorf("core: %s: %w", b.ID, h.err)
		return
	}
	// CPU and RAM resizing are independent MCKP solves, run in turn:
	// callers fan out over boxes, not within one.
	for r := trace.CPU; r <= trace.RAM && h.err == nil; r++ {
		h.err = p.arena.solveInto(ctx, p.cfg, b, h.pred, r)
	}
}

// Prepare runs the model phase of the box's next step ahead of time, on
// a window that need only hold the step's TrainWindows training samples
// (anything after them is ignored). The StepInto that later gets the
// same window extended by its horizon — same box id and capacities, same
// training samples — only evaluates and counts tickets; any other window
// makes it discard the prepared phase and run its own, from the model
// state this call started from. Preparing changes no result, only when
// the work is done. A failure is held and surfaces from that StepInto,
// degraded plan included; it is also returned here for the caller's
// logs. Whatever an earlier StepInto returned is overwritten.
func (p *Pipeline) Prepare(ctx context.Context, b *trace.Box) error {
	p.drop()
	demands, _ := p.arena.demandsInto(b, 0)
	if err := checkWindow(demands, p.cfg.TrainWindows); err != nil {
		return fmt.Errorf("core: %s: %w", b.ID, err)
	}
	p.model(ctx, b, demands)
	return p.held.err
}

// StepInto runs the whole pipeline (predict + resize CPU and RAM, then
// evaluate) on one window of the box, updating the retained model state
// for the next window. It is two phases: the model phase (see model),
// which it skips when Prepare already ran it for this window, and the
// finish, which needs the horizon's actuals — prediction error, the
// drift observation and the ticket counts. Under an obs.Tracer the
// window nests beneath a "core.box" span — signature search or refit,
// temporal fits, reconstruction, both resource resizes and evaluation.
// In degraded mode model failures yield the stingy fallback result
// alongside the causing error (see Config.Degraded).
//
// Every stage writes into pipeline-owned buffers: a steady-state call
// performs zero heap allocations (a temporal factory producing
// predict.IntoForecaster models, and a window that rolls the previous
// one). The returned result — its prediction, model, demand
// and size slices — is arena-owned and valid only until the next
// StepInto or Prepare call; callers that retain results Clone them.
//
// Reuse steps go through the incremental window-roll path (rank-1
// Cholesky up/downdates on the dependent fits' normal equations),
// which agrees with the reference refit within 1e-9; a window that
// does not roll the previous one takes the reference refit itself.
// Research steps run the full search.
func (p *Pipeline) StepInto(ctx context.Context, b *trace.Box) (*BoxResult, error) {
	ctx, span := obs.StartSpan(ctx, "core.box")
	defer span.End()
	if span != nil {
		span.SetAttr("box", b.ID)
		span.SetAttr("vms", len(b.VMs))
	}
	// fail routes pipeline errors: in degraded mode model failures
	// (not config mistakes) yield the stingy fallback result alongside
	// the causing error, so the fleet run keeps going.
	fail := func(err error) (*BoxResult, error) {
		if p.cfg.Degraded && !errors.Is(err, ErrBadConfig) {
			if span != nil {
				span.SetAttr("degraded", true)
			}
			return degradedResult(b, p.cfg, err), err
		}
		return nil, err
	}

	a := &p.arena
	keep := 0
	if p.held.matches(b) {
		keep = p.cfg.TrainWindows
	}
	demands, prepared := a.demandsInto(b, keep)
	if err := checkWindow(demands, p.cfg.TrainWindows+p.cfg.Horizon); err != nil {
		p.drop()
		return fail(fmt.Errorf("core: %s: %w", b.ID, err))
	}
	if prepared {
		phaseAhead.Inc()
	} else {
		if p.held.set {
			phaseStale.Inc()
			p.drop()
		} else {
			phaseInline.Inc()
		}
		p.model(ctx, b, demands)
	}
	res, err := p.finish(ctx, b, demands)
	if err != nil {
		return fail(err)
	}
	boxesRun.Inc()
	return res, nil
}

// finish is the part of a step that needs the horizon's actuals: it
// scores the held model phase's prediction against them, feeds the
// error to the drift detector and counts tickets under the old and the
// new sizes. A model phase that failed surfaces here — after the
// prediction, if there is one, has been evaluated and observed.
func (p *Pipeline) finish(ctx context.Context, b *trace.Box, demands []timeseries.Series) (*BoxResult, error) {
	h := &p.held
	h.set = false
	pred := h.pred
	if pred == nil {
		return nil, h.err
	}
	_, span := obs.StartSpan(ctx, "core.evaluate")
	defer span.End()
	start := time.Now()
	defer func() { evaluateSeconds.Observe(time.Since(start).Seconds()) }()
	a := &p.arena
	// Peak level for series i: ticket threshold times allocated
	// capacity of the owning VM.
	peaks := growFloats(a.peaks, len(demands))
	a.peaks = peaks
	for i := range peaks {
		vm := &b.VMs[trace.SeriesVM(i)]
		peaks[i] = p.cfg.Threshold * vm.Capacity(trace.SeriesResource(i))
	}
	if err := pred.Evaluate(demands, p.cfg, peaks); err != nil {
		return nil, fmt.Errorf("core: %s: evaluate: %w", b.ID, err)
	}
	p.observe(pred)
	if h.err != nil {
		return nil, h.err
	}
	res := &a.result
	*res = BoxResult{Box: b, Prediction: pred}
	res.CPU, res.RAM = a.countTickets(p.cfg, b, trace.CPU), a.countTickets(p.cfg, b, trace.RAM)
	return res, nil
}
