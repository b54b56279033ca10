package main

// perLayer are the metrics of single layers, from the traced run: the
// same script replayed by one harness goroutine with the engine
// stopped, spans recorded at the seams the public API offers, stage
// probes for the layers without a seam, and deltas of the program's
// own obs.Default() counters. Layers are this repo's modules. None
// carries a bound; README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metric{
	// loadgen (the harness itself): validity only.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.requests", Unit: "count", Better: "higher"},
	{Name: "loadgen.bytes_out", Unit: "bytes", Better: "higher"},
	// serve
	{Name: "serve.requests", Unit: "count", Better: "higher"},
	{Name: "serve.bytes_in", Unit: "bytes", Better: "higher"},
	{Name: "serve.ingest_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.decode_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.self_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.http_overhead_s", Unit: "s", Better: "lower"},
	{Name: "serve.plan_gets", Unit: "count", Better: "higher"},
	{Name: "serve.plan_busy_s", Unit: "s", Better: "lower"},
	{Name: "serve.non200", Unit: "count", Better: "lower"},
	{Name: "serve.box_errors", Unit: "count", Better: "lower"},
	// state
	{Name: "state.appends", Unit: "count", Better: "higher"},
	{Name: "state.ticks", Unit: "count", Better: "higher"},
	{Name: "state.append_busy_s", Unit: "s", Better: "lower"},
	{Name: "state.windows", Unit: "count", Better: "higher"},
	{Name: "state.window_busy_s", Unit: "s", Better: "lower"},
	{Name: "state.series", Unit: "count", Better: "higher"},
	{Name: "state.shard_skew", Unit: "ratio", Better: "lower"},
	// engine
	{Name: "engine.passes", Unit: "count", Better: "lower"},
	{Name: "engine.pass_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.self_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.inspected", Unit: "count", Better: "lower"},
	{Name: "engine.steps", Unit: "count", Better: "higher"},
	{Name: "engine.ready_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.backlog_end", Unit: "count", Better: "lower"},
	{Name: "engine.lag_max_samples", Unit: "count", Better: "lower"},
	{Name: "engine.evicted", Unit: "count", Better: "lower"},
	{Name: "engine.step_errors", Unit: "count", Better: "lower"},
	// core
	{Name: "core.steps", Unit: "count", Better: "higher"},
	{Name: "core.step_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.self_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.degraded", Unit: "count", Better: "lower"},
	{Name: "core.probe_coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.tickets_before", Unit: "count", Better: "lower"},
	{Name: "core.tickets_after", Unit: "count", Better: "lower"},
	// spatial (+ cluster, regress, linalg)
	{Name: "spatial.searches", Unit: "count", Better: "lower"},
	{Name: "spatial.refits", Unit: "count", Better: "higher"},
	{Name: "spatial.search_busy_s", Unit: "s", Better: "lower"},
	{Name: "spatial.refit_busy_s", Unit: "s", Better: "lower"},
	{Name: "spatial.signature_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.dtw_busy_s", Unit: "s", Better: "lower"},
	{Name: "cluster.dtw_pairs", Unit: "count", Better: "lower"},
	{Name: "cluster.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "regress.vif_busy_s", Unit: "s", Better: "lower"},
	{Name: "regress.vif_eliminations", Unit: "count", Better: "lower"},
	// predict
	{Name: "predict.fits", Unit: "count", Better: "lower"},
	{Name: "predict.fit_busy_s", Unit: "s", Better: "lower"},
	{Name: "predict.forecast_busy_s", Unit: "s", Better: "lower"},
	{Name: "predict.fit_errors", Unit: "count", Better: "lower"},
	// resize (+ ticket)
	{Name: "resize.solves", Unit: "count", Better: "lower"},
	{Name: "resize.busy_s", Unit: "s", Better: "lower"},
	{Name: "resize.heap_pops", Unit: "count", Better: "lower"},
	{Name: "resize.repair_moves", Unit: "count", Better: "lower"},
	// control / score
	{Name: "control.updates", Unit: "count", Better: "higher"},
	{Name: "control.busy_s", Unit: "s", Better: "lower"},
	{Name: "control.blends", Unit: "count", Better: "lower"},
	{Name: "control.floors", Unit: "count", Better: "lower"},
	{Name: "score.observes", Unit: "count", Better: "higher"},
	{Name: "score.busy_s", Unit: "s", Better: "lower"},
	// actuator (+ policy)
	{Name: "actuator.sets", Unit: "count", Better: "lower"},
	{Name: "actuator.gets", Unit: "count", Better: "lower"},
	{Name: "actuator.set_busy_s", Unit: "s", Better: "lower"},
	{Name: "actuator.get_busy_s", Unit: "s", Better: "lower"},
	{Name: "actuator.apply_busy_s", Unit: "s", Better: "lower"},
	{Name: "actuator.rollbacks", Unit: "count", Better: "lower"},
	{Name: "policy.clamps", Unit: "count", Better: "lower"},
	{Name: "policy.busy_s", Unit: "s", Better: "lower"},
	// obs: anything dropped voids the run.
	{Name: "obs.events_published", Unit: "count", Better: "higher"},
	{Name: "obs.events_dropped", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	// whole run
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.explained_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.probe_wall_s", Unit: "s", Better: "lower"},
}

// crossRun needs both runs of a workload, so only the all-workloads
// mode, which makes both, can report it: (traced - untraced wall) /
// untraced wall. It includes the shard parallelism the one-goroutine
// traced run gives up, not just the cost of recording spans.
var crossRun = []metric{
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives every per-layer metric of a finished traced run.
func (r *run) layerValues(p *probes) values {
	vs := values{}
	spans := selfTimes(r.rec.spans)
	busy := func(name string) float64 { return spans[name].total.Seconds() }
	count := func(name string) float64 { return float64(spans[name].count) }
	d := func(name string) float64 { return delta(r.before, r.after, name) }

	// loadgen
	vs.set("loadgen.late_p99_ms", 0, 0) // the traced replay is not paced
	vs.set("loadgen.requests", float64(r.tl.posts+r.tl.gets), 0)
	vs.set("loadgen.bytes_out", float64(r.tl.bytesOut), 0)

	// serve
	steps := d("atm_engine_steps_total")
	decode := p.decode.scaled(float64(r.tl.bytesOut))
	appendBusy := p.append.scaled(float64(r.tl.samples))
	ingest := busy("serve.ingest")
	vs.set("serve.requests", count("serve.ingest")+count("serve.plan"), 0)
	vs.set("serve.bytes_in", float64(r.tl.bytesOut), 0)
	vs.set("serve.ingest_busy_s", ingest, spans["serve.ingest"].count)
	vs.set("serve.decode_busy_s", decode, p.bodies)
	vs.set("serve.self_busy_s", ingest-decode-appendBusy, 0)
	vs.set("serve.http_overhead_s",
		busy("client.post")+busy("client.get")-ingest-busy("serve.plan"), r.tl.posts+r.tl.gets)
	vs.set("serve.plan_gets", count("serve.plan"), 0)
	vs.set("serve.plan_busy_s", busy("serve.plan"), spans["serve.plan"].count)
	vs.set("serve.non200", float64(r.tl.non200), 0)
	vs.set("serve.box_errors", float64(r.tl.boxErrs), 0)

	// state
	store := r.st.svc.Store()
	perShard := make([]int, store.Shards())
	for b := range r.f.boxes {
		perShard[store.ShardOf(r.f.boxes[b].ID)]++
	}
	most := 0
	for _, n := range perShard {
		most = max(most, n)
	}
	w := r.workDone()
	window := p.window.scaled(w.series)
	vs.set("state.appends", float64(r.tl.entries), 0)
	vs.set("state.ticks", float64(r.tl.ticks), 0)
	vs.set("state.append_busy_s", appendBusy, p.bodies)
	vs.set("state.windows", steps, 0)
	vs.set("state.window_busy_s", window, p.steps)
	vs.set("state.series", float64(2*r.f.vms), 0)
	vs.set("state.shard_skew", ratio(float64(most)*float64(len(perShard)), float64(len(r.f.boxes))), 0)

	// spatial, predict, resize, control, score, actuator: probe time
	// scaled by the run's own counts; predict and the registry calls
	// have a seam and are measured directly.
	searches, refits := d("atm_engine_research_total"), d("atm_engine_refit_total")
	search, refit := p.search.scaled(w.researchPairs), p.refit.scaled(w.refitSeries)
	fit, forecast := busy("predict.fit"), busy("predict.forecast")
	resize := p.resize.scaled(w.series)
	ctl, scr := p.control.scaled(w.series), p.score.scaled(w.series)
	apply := p.apply.scaled(w.series)
	step := p.stepResearch.scaled(w.researchPairs) + p.stepRefit.scaled(w.refitSeries)

	// engine
	inspected := d("atm_engine_boxes_inspected_total")
	pass := busy("engine.pass")
	vs.set("engine.passes", count("engine.pass"), 0)
	vs.set("engine.pass_busy_s", pass, spans["engine.pass"].count)
	vs.set("engine.self_busy_s", pass-step-window-ctl-scr-apply, 0)
	vs.set("engine.inspected", inspected, 0)
	vs.set("engine.steps", steps, 0)
	vs.set("engine.ready_ratio", ratio(steps, inspected), 0)
	vs.set("engine.backlog_end", float64(r.backlogEnd), 0)
	vs.set("engine.lag_max_samples", r.after.family("atm_engine_ingest_lag_samples"), 0)
	vs.set("engine.evicted", d("atm_engine_evicted_steps_total"), 0)
	vs.set("engine.step_errors", d("atm_engine_step_errors_total"), 0)

	// core
	plans, before, after := r.planTotals()
	vs.set("core.steps", float64(plans), 0)
	vs.set("core.step_busy_s", step, p.steps)
	vs.set("core.self_busy_s", step-search-refit-fit-forecast-resize, 0)
	vs.set("core.degraded", d("atm_degraded_boxes_total"), 0)
	vs.set("core.probe_coverage", ratio(search+refit+fit+forecast+resize, step), 0)
	vs.set("core.tickets_before", float64(before), 0)
	vs.set("core.tickets_after", float64(after), 0)

	// spatial
	exact := deltaSeries(r.before, r.after, `atm_dtw_pairs_total{outcome="exact"}`)
	pruned := deltaSeries(r.before, r.after, `atm_dtw_pairs_total{outcome="pruned"}`)
	vs.set("spatial.searches", searches, 0)
	vs.set("spatial.refits", refits, 0)
	vs.set("spatial.search_busy_s", search, p.steps)
	vs.set("spatial.refit_busy_s", refit, p.steps)
	vs.set("spatial.signature_ratio", ratio(count("predict.fit"), steps*ratio(float64(2*r.f.vms), float64(len(r.f.boxes)))), 0)
	vs.set("cluster.dtw_busy_s", p.dtw.scaled(w.researchPairs), p.steps)
	vs.set("cluster.dtw_pairs", exact+pruned, 0)
	vs.set("cluster.pruned_ratio", ratio(pruned, exact+pruned), 0)
	vs.set("regress.vif_busy_s", p.vif.scaled(w.researchPairs), p.steps)
	vs.set("regress.vif_eliminations", d("atm_vif_eliminations_total"), 0)

	// predict
	vs.set("predict.fits", count("predict.fit"), 0)
	vs.set("predict.fit_busy_s", fit, spans["predict.fit"].count)
	vs.set("predict.forecast_busy_s", forecast, spans["predict.forecast"].count)
	vs.set("predict.fit_errors", float64(r.rec.fitErrs), 0)

	// resize
	vs.set("resize.solves", d("atm_resize_greedy_solves_total"), 0)
	vs.set("resize.busy_s", resize, p.steps)
	vs.set("resize.heap_pops", d("atm_resize_heap_pops_total"), 0)
	vs.set("resize.repair_moves", d("atm_resize_repair_moves_total"), 0)

	// control / score
	vs.set("control.updates", float64(plans), 0)
	vs.set("control.busy_s", ctl, p.steps)
	vs.set("control.blends", d("atm_control_blend_total"), 0)
	vs.set("control.floors", d("atm_control_floor_total"), 0)
	vs.set("score.observes", float64(plans), 0)
	vs.set("score.busy_s", scr, p.steps)

	// actuator / policy
	vs.set("actuator.sets", count("actuator.set"), 0)
	vs.set("actuator.gets", count("actuator.get"), 0)
	vs.set("actuator.set_busy_s", busy("actuator.set"), spans["actuator.set"].count)
	vs.set("actuator.get_busy_s", busy("actuator.get"), spans["actuator.get"].count)
	vs.set("actuator.apply_busy_s", apply, p.steps)
	vs.set("actuator.rollbacks", d("atm_apply_rollbacks_total"), 0)
	vs.set("policy.clamps", d("atm_policy_clamps_total"), 0)
	vs.set("policy.busy_s", p.policy.scaled(w.series), p.steps)

	// obs
	vs.set("obs.events_published", d("atm_events_published_total"), 0)
	vs.set("obs.events_dropped", d("atm_events_dropped_total"), 0)
	vs.set("obs.spans_dropped", float64(r.rec.dropped), 0)

	// whole: the client spans cover HTTP and the handlers, the pass
	// spans cover the engine and everything under it; what is left of
	// the wall is the harness's own glue.
	vs.set("trace.wall_s", r.wall.Seconds(), 0)
	vs.set("trace.explained_frac", ratio(busy("client.post")+busy("client.get")+pass, r.wall.Seconds()), 0)
	vs.set("trace.probe_wall_s", p.wall.Seconds(), 0)
	return vs
}
