package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/cluster"
	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/regress"
	"atm/internal/score"
	"atm/internal/serve"
	"atm/internal/spatial"
	"atm/internal/state"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// Stage probes. The program has no seam around decode, append, window
// read, search, refit, resize, blend, scoring, rails or the whole step,
// so after a traced run the harness times the layers' public functions
// itself, in journey order, on a seeded sample of the request bodies
// the script sent and of the (box, step) windows it published. A
// layer's busy time is then a ratio estimate: probe time per unit of
// work, times the units the whole run did. The unit is what the stage's
// cost grows with: body bytes for decode, VM-samples for append, series
// pairs for the signature search (its DTW matrix is quadratic in the
// box's series), series for everything else. These are estimates (the
// public functions are the allocating reference paths, and a probe has
// no envelope carry-over between searches) until the program grows its
// own stage clocks.

// maxProbes caps either sample.
const maxProbes = 64

// stage accumulates one probed stage.
type stage struct {
	busy  time.Duration
	units float64 // what the probe processed, in the stage's scaling unit
}

func (s *stage) add(d time.Duration, units float64) {
	s.busy += d
	s.units += units
}

// scaled extrapolates the probed time to the run's unit count.
func (s *stage) scaled(units float64) float64 {
	if s.units == 0 {
		return 0
	}
	return s.busy.Seconds() / s.units * units
}

// probes holds every stage; the comment gives the scaling unit.
type probes struct {
	decode       stage // request body bytes
	append       stage // VM-samples
	window       stage // series, all steps
	dtw          stage // pairs, research steps
	vif          stage // pairs, research steps
	search       stage // pairs, research steps
	stepResearch stage // pairs, research steps
	refit        stage // series, refit steps
	stepRefit    stage // series, refit steps
	resize       stage // series, all steps
	control      stage // series, all steps
	score        stage // series, all steps
	policy       stage // series, all steps
	apply        stage // series, all steps
	bodies       int   // bodies probed
	steps        int   // windows probed
	wall         time.Duration
}

// work is the run's total units per scaling unit, from its plan events.
type work struct {
	series          float64 // series, summed over all steps
	researchPairs   float64 // series pairs, summed over research steps
	refitSeries     float64 // series, summed over refit steps
	research, refit int
}

func pairs(series int) float64 { return float64(series*(series-1)) / 2 }

// workDone sums the units of every step the window published.
func (r *run) workDone() work {
	series := make(map[string]int, len(r.f.boxes))
	for b := range r.f.boxes {
		series[r.f.boxes[b].ID] = 2 * len(r.f.boxes[b].VMs)
	}
	var w work
	for i := range r.events {
		ev := &r.events[i]
		if ev.Type != "plan" || ev.Degraded {
			continue
		}
		n := series[ev.Box]
		w.series += float64(n)
		if ev.Research {
			w.research++
			w.researchPairs += pairs(n)
		} else {
			w.refit++
			w.refitSeries += float64(n)
		}
	}
	return w
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// probe runs the stage probes within about the given budget.
func (r *run) probe(ctx context.Context, budget time.Duration) *probes {
	p := &probes{}
	begun := time.Now()
	rng := rand.New(rand.NewSource(r.opt.seed))

	// Bodies: every script body is equally likely.
	var all []*body
	sets := append([][][]body{r.backfill, r.burst}, r.gap...)
	for _, set := range sets {
		for i := range set {
			for j := range set[i] {
				all = append(all, &set[i][j])
			}
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	for _, b := range all[:min(len(all), maxProbes)] {
		if time.Since(begun) > budget/4 {
			break
		}
		r.probeBody(p, b)
	}

	// Windows: every published plan is equally likely.
	type win struct {
		box      int
		step     int
		research bool
	}
	index := make(map[string]int, len(r.f.boxes))
	for b := range r.f.boxes {
		index[r.f.boxes[b].ID] = b
	}
	var wins []win
	for i := range r.events {
		if ev := &r.events[i]; ev.Type == "plan" && !ev.Degraded {
			wins = append(wins, win{index[ev.Box], ev.Step, ev.Research})
		}
	}
	rng.Shuffle(len(wins), func(a, b int) { wins[a], wins[b] = wins[b], wins[a] })
	for _, w := range wins[:min(len(wins), maxProbes)] {
		if time.Since(begun) > budget {
			break
		}
		r.probeStep(ctx, p, w.box, w.step, w.research)
	}
	p.wall = time.Since(begun)
	return p
}

// probeBody times the decode of one request body as serve does it, and
// the append of its entries to a twin store. serve decodes into pooled
// scratch that already has the capacity, so the probe times a second
// decode into the same request value.
func (r *run) probeBody(p *probes, b *body) {
	var req serve.BatchRequest
	decode := func() {
		for i := range req.Boxes {
			req.Boxes[i] = serve.BatchEntry{Samples: req.Boxes[i].Samples[:0]}
		}
		req.Boxes = req.Boxes[:0]
		dec := json.NewDecoder(bytes.NewReader(b.data))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req) // the service accepted this body
	}
	decode()
	p.decode.add(timeIt(decode), float64(len(b.data)))

	twin, err := state.NewStoreSharded(r.sp.sc.history, state.DefaultShards)
	if err != nil {
		return
	}
	for i := b.lo; i < b.hi; i++ {
		_ = twin.Register(r.f.metas[i])
	}
	cpu := make([][]float64, 0, b.ticks)
	ram := make([][]float64, 0, b.ticks)
	appendAll := func() {
		for i := range req.Boxes {
			e := &req.Boxes[i]
			cpu, ram = cpu[:0], ram[:0]
			for k := range e.Samples {
				cpu = append(cpu, e.Samples[k].CPU)
				ram = append(ram, e.Samples[k].RAM)
			}
			_, _ = twin.AppendBatch(e.ID, cpu, ram)
		}
	}
	// The first append faults the twin's fresh ring pages in, a cost the
	// service's long-lived rings pay once, not per request.
	appendAll()
	p.append.add(timeIt(appendAll), float64(b.samples))
	p.bodies++
}

// probeStep times the planning journey of one published window.
func (r *run) probeStep(ctx context.Context, p *probes, b, step int, research bool) {
	sc, cfg := r.sp.sc, r.st.core
	cfg.Workers = 1 // as the engine pins it
	src := r.f.window(sc, b, step)
	meta := r.f.metas[b]

	// state: read the window back from a twin store holding it.
	twin, err := state.NewStoreSharded(sc.history, 1)
	if err != nil {
		return
	}
	_ = twin.Register(meta)
	n := sc.train + sc.horizon
	cpu, ram := r.f.ticks(b, step*sc.horizon, step*sc.horizon+n)
	if _, err := twin.AppendBatch(meta.ID, cpu, ram); err != nil {
		return
	}
	var wb trace.Box
	series := float64(2 * len(meta.VMs))
	p.window.add(timeIt(func() { err = twin.WindowInto(meta.ID, 0, n, &wb) }), series)
	if err != nil {
		return
	}
	train := trainSeries(&wb, sc.train)
	np := pairs(len(train))

	if research {
		// cluster + regress: the two halves of the signature search.
		var res cluster.Result
		p.dtw.add(timeIt(func() {
			if cfg.Spatial.DTWApprox {
				res, err = cluster.DTWSearchApprox(train, cfg.Spatial.DTWWindow, 0)
			} else {
				res, err = cluster.DTWSearch(train, -1)
			}
		}), np)
		if err == nil && len(res.Signatures) >= 2 {
			sigs := make([]timeseries.Series, len(res.Signatures))
			for i, idx := range res.Signatures {
				sigs[i] = train[idx]
			}
			p.vif.add(timeIt(func() { _, _, _ = regress.StepwiseVIF(sigs, regress.DefaultVIFCutoff) }), np)
		}
		p.search.add(timeIt(func() { _, _ = spatial.SearchContext(ctx, train, cfg.Spatial) }), np)
	}

	// core: the whole step, on a pipeline in the state the engine's was
	// in: fresh for a box's first step, and otherwise one that stepped
	// the previous window, with its arena sized and, under reuse, its
	// model to refit.
	pipe, err := core.NewPipeline(sc.spd, cfg)
	if err != nil {
		return
	}
	if step > 0 {
		prev := r.f.window(sc, b, step-1)
		if _, err := pipe.StepInto(ctx, prev); err != nil {
			return
		}
		if !research {
			// spatial: the incremental refit alone, on a roller built
			// (not timed: the pipeline keeps its roller across steps)
			// from the previous window's model.
			prevTrain := trainSeries(prev, sc.train)
			if model, err := spatial.SearchContext(ctx, prevTrain, cfg.Spatial); err == nil {
				if roller, err := spatial.NewRoller(prevTrain, model); err == nil {
					p.refit.add(timeIt(func() { _ = roller.Roll(train, sc.horizon) }), series)
				}
			}
		}
	}
	var res *core.BoxResult
	d := timeIt(func() { res, err = pipe.StepInto(ctx, src) })
	if err != nil || res == nil || res.Degraded {
		return
	}
	if research {
		p.stepResearch.add(d, np)
	} else {
		p.stepRefit.add(d, series)
	}
	p.steps++

	// resize: both resources, from the step's own forecast.
	p.resize.add(timeIt(func() {
		_, _ = core.ResizeBoxContext(ctx, src, res.Prediction, trace.CPU, cfg)
		_, _ = core.ResizeBoxContext(ctx, src, res.Prediction, trace.RAM, cfg)
	}), series)

	// control: trust update and blend toward the stingy allocation.
	ctl := control.New(1, control.Config{Enabled: true})
	p.control.add(timeIt(func() {
		o := control.Observation{}
		if m := res.MeanMAPE(); !math.IsNaN(m) && !math.IsInf(m, 0) {
			o.StepMAPE, o.HaveStep = m, true
		}
		dec := ctl.Update(meta.ID, 0, o)
		ctl.Blend(meta.ID, 0, src, res, cfg, dec.Lambda)
	}), series)

	// score: the forecast scorecard.
	board := score.NewBoard(1, cfg)
	p.score.add(timeIt(func() { board.Observe(meta.ID, 0, res) }), series)

	// policy, then the transactional apply through the guarded backend.
	reg := actuator.NewRegistry()
	for _, vm := range meta.VMs {
		_ = reg.Set(vm.ID, actuator.Limits{CPUGHz: vm.CPUCapGHz, RAMGB: vm.RAMCapGB})
	}
	p.policy.add(timeIt(func() {
		for v, vm := range meta.VMs {
			cur := actuator.Limits{CPUGHz: vm.CPUCapGHz, RAMGB: vm.RAMCapGB}
			rails.Apply(vm.ID, &cur, actuator.Limits{CPUGHz: res.CPU.Sizes[v], RAMGB: res.RAM.Sizes[v]})
		}
	}), series)
	guard := policy.NewGuard(reg, rails)
	p.apply.add(timeIt(func() { _ = core.ApplyBox(ctx, guard, res) }), series)
}

// trainSeries returns the training part of the window's demand series,
// as core slices it for the spatial model.
func trainSeries(wb *trace.Box, train int) []timeseries.Series {
	demands := wb.DemandSeries()
	for i := range demands {
		demands[i] = demands[i].Slice(0, train)
	}
	return demands
}
