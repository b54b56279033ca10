package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/state"
)

// Observability self-overhead workload: a mid-size fleet streamed
// through the full ingest → dirty-mark → scheduling-pass → plan hot
// loop, once bare (nil tracer, nil event log — the zero-alloc steady
// state) and once fully instrumented (per-append ingest spans adopted
// by the store, linked engine.step spans into a ring exporter, a
// decision event per step into a sink-backed log). Forecast scoring is
// deliberately in BOTH runs — the score board is always on in the
// engine, so its cost is part of the bare baseline, not the overhead
// under test.
const (
	obsBenchBoxes = 192
	obsBenchVMs   = 13 // paper-shaped boxes: 6160 × 13 ≈ the paper's 80K VMs
	// obsBenchSteps is sized so one run takes a few hundred ms: long
	// enough that a stray GC cycle or scheduler hiccup cannot swing a
	// single pair's ratio by double digits.
	obsBenchSteps = 24
	obsBenchChunk = 32
	// obsBenchBatch is the serve-API request granularity: ticks per
	// batched append (and per ingest span when instrumented).
	obsBenchBatch = 4
	// ObsOverheadBudget is the obsguard ceiling: the instrumented hot
	// loop may cost at most this fraction over the bare loop.
	ObsOverheadBudget = 0.15
)

// ObsBenchResult records the observability-plane self-overhead
// measurement; `make obsbench` persists it as BENCH_obs.json and
// `make obsguard` re-measures against ObsOverheadBudget.
type ObsBenchResult struct {
	// Workload shape.
	Boxes       int `json:"boxes"`
	VMsPerBox   int `json:"vms_per_box"`
	TicksPerBox int `json:"ticks_per_box"`
	StepsPerRun int `json:"steps_per_run"`
	Reps        int `json:"reps"`

	// BareMS is the uninstrumented hot loop; InstrumentedMS carries
	// spans + events + trace adoption. Both are the min over Reps runs.
	BareMS         float64 `json:"bare_ms"`
	InstrumentedMS float64 `json:"instrumented_ms"`
	// OverheadFrac is the noise-robust estimate of what the plane costs
	// the hot loop: the lower of (a) the median over reps of each
	// interleaved pair's instrumented/bare wall-clock ratio and (b) the
	// ratio of the min-over-reps wall clocks, minus 1.
	OverheadFrac float64 `json:"overhead_frac"`
	// OverheadBudget is the ceiling obsguard enforces.
	OverheadBudget float64 `json:"overhead_budget"`

	// Liveness proof for the instrumented run: the plane must actually
	// have recorded the work it is billed for.
	SpansExported   int    `json:"spans_exported"`
	SpansDropped    int    `json:"spans_dropped"`
	EventsPublished uint64 `json:"events_published"`
	EventsDropped   uint64 `json:"events_dropped"`

	// PlansMatch reports that instrumentation changed no decision: both
	// runs published identical plans for every box.
	PlansMatch bool `json:"plans_match"`
}

// obsBenchConfig keeps the per-step pipeline cheap (CBC spatial,
// seasonal-naive temporal) so the hot loop's ingest, scheduling and
// publication — the code the instrumentation touches — are a large
// share of each run rather than drowned in pipeline arithmetic, which
// is identical with and without the plane.
func obsBenchConfig() (core.Config, int) {
	spd := 8
	return core.Config{
		Spatial:      spatial.Config{Method: spatial.MethodCBC},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 2 * spd,
		Horizon:      spd / 2,
		Threshold:    0.6,
		Epsilon:      0.1,
		Degraded:     true,
	}, spd
}

func obsBenchBoxID(i int) string { return fmt.Sprintf("box-%05d", i) }

// minTimeMS runs fn reps times and returns the fastest wall-clock
// time in milliseconds. reps must be positive.
func minTimeMS(reps int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		best = math.Min(best, float64(time.Since(start))/float64(time.Millisecond))
	}
	return best
}

func ms(v float64) string { return fmt.Sprintf("%.1fms", v) }

// obsBenchRun streams the synthetic fleet through a fresh store+engine
// pair, optionally under full instrumentation, and returns the engine
// plus the instrumented run's ring and event log for liveness checks.
func obsBenchRun(instrumented bool) (*engine.Engine, *obs.RingExporter, *obs.EventLog, error) {
	cfg, spd := obsBenchConfig()
	ticks := cfg.TrainWindows + obsBenchSteps*cfg.Horizon
	st, err := state.NewStoreSharded(cfg.TrainWindows+2*cfg.Horizon, state.DefaultShards)
	if err != nil {
		return nil, nil, nil, err
	}
	ecfg := engine.Config{Core: cfg, SamplesPerDay: spd, Workers: 1}
	var ring *obs.RingExporter
	var events *obs.EventLog
	var tracer *obs.Tracer
	if instrumented {
		ring = obs.NewRingExporter(obsBenchBoxes * obsBenchSteps * 4)
		tracer = obs.NewTracer(ring)
		// Ring-backed events only: the JSONL file sink is opt-in in
		// production (atmd -events) and encodes asynchronously, so the
		// default-on plane under test is ring + spans + trace adoption.
		events = obs.NewEventLog(obsBenchBoxes * obsBenchSteps)
		ecfg.Tracer = tracer
		ecfg.Events = events
	}
	e, err := engine.New(st, ecfg)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := state.BoxMeta{CPUCapGHz: 2.4 * obsBenchVMs, RAMCapGB: 16 * obsBenchVMs}
	for v := 0; v < obsBenchVMs; v++ {
		meta.VMs = append(meta.VMs, state.VMMeta{
			ID: fmt.Sprintf("vm%02d", v), CPUCapGHz: 2.4, RAMCapGB: 16,
		})
	}
	for b := 0; b < obsBenchBoxes; b++ {
		m := meta
		m.ID = obsBenchBoxID(b)
		if err := st.Register(m); err != nil {
			return nil, nil, nil, err
		}
	}
	ctx := context.Background()
	// Ticks arrive in production-shaped batches: one ingest request —
	// and, instrumented, one root span — covers obsBenchBatch ticks for
	// a box, matching the serve API's POST granularity. Both planes use
	// the identical batched append path so the measured delta is purely
	// the instrumentation.
	cpu := make([][]float64, obsBenchBatch)
	ram := make([][]float64, obsBenchBatch)
	for k := range cpu {
		cpu[k] = make([]float64, obsBenchVMs)
		ram[k] = make([]float64, obsBenchVMs)
	}
	for tick := 0; tick < ticks; tick += obsBenchBatch {
		for from := 0; from < obsBenchBoxes; from += obsBenchChunk {
			to := from + obsBenchChunk
			if to > obsBenchBoxes {
				to = obsBenchBoxes
			}
			for b := from; b < to; b++ {
				for k := range cpu {
					phase := 2 * math.Pi * float64((tick+k)%spd) / float64(spd)
					for v := range cpu[k] {
						cpu[k][v] = 35 + 25*math.Sin(phase) + float64((b*31+v*17+(tick+k)*7)%11) - 5
						ram[k][v] = 50 + 15*math.Sin(phase+1.3) + float64((b*13+v*29+(tick+k)*3)%7) - 3
					}
				}
				id := obsBenchBoxID(b)
				if instrumented {
					// The production serve path: an ingest root span the
					// store adopts, so the engine's step span links back
					// to the batch that made the box dirty.
					ictx, span := obs.StartSpan(obs.WithTracer(ctx, tracer), "bench.ingest")
					span.SetAttr("box", id)
					span.SetAttr("ticks", obsBenchBatch)
					_, err = st.AppendBatchCtx(ictx, id, cpu, ram)
					span.End()
				} else {
					_, err = st.AppendBatch(id, cpu, ram)
				}
				if err != nil {
					return nil, nil, nil, err
				}
			}
			e.Sync(ctx)
		}
	}
	return e, ring, events, nil
}

// ObsBench measures the observability plane's self-overhead on the
// streaming hot loop.
func ObsBench(opts Options) (*ObsBenchResult, error) {
	opts = opts.withDefaults()
	reps := opts.Reps
	if reps <= 0 {
		reps = 3
	}
	cfg, _ := obsBenchConfig()
	res := &ObsBenchResult{
		Boxes:          obsBenchBoxes,
		VMsPerBox:      obsBenchVMs,
		TicksPerBox:    cfg.TrainWindows + obsBenchSteps*cfg.Horizon,
		Reps:           reps,
		OverheadBudget: ObsOverheadBudget,
	}

	var bare, inst *engine.Engine
	var ring *obs.RingExporter
	var events *obs.EventLog
	var err error

	// Interleave the planes rep by rep: paired runs sample the same
	// CPU-frequency/GC weather, so each rep's instrumented/bare ratio
	// isolates the instrumentation, and the median ratio across reps
	// discards the odd rep where one plane drew an unlucky scheduler.
	// Within a pair the order alternates, so neither plane always runs
	// into the other's just-released heap.
	// Each pair member is itself a min over two runs: a GC cycle or
	// scheduler hiccup landing inside one run cannot contaminate the
	// pair's ratio unless it hits both runs of the same plane.
	runBare := func() float64 {
		runtime.GC() // level the heap so neither plane starts in the other's garbage
		return minTimeMS(2, func() {
			if err == nil {
				bare, _, _, err = obsBenchRun(false)
			}
		})
	}
	runInst := func() float64 {
		runtime.GC()
		return minTimeMS(2, func() {
			if err == nil {
				inst, ring, events, err = obsBenchRun(true)
			}
		})
	}
	ratios := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		var tb, ti float64
		if r%2 == 0 {
			tb = runBare()
			ti = runInst()
		} else {
			ti = runInst()
			tb = runBare()
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: obsbench: %w", err)
		}
		if r == 0 || tb < res.BareMS {
			res.BareMS = tb
		}
		if r == 0 || ti < res.InstrumentedMS {
			res.InstrumentedMS = ti
		}
		if tb > 0 {
			ratios = append(ratios, ti/tb)
		}
	}
	// Two estimators of the same multiplicative overhead, contaminated
	// by different noise draws: the median of the per-pair ratios, and
	// the ratio of the min-over-reps wall clocks. On a loaded or
	// single-core host either can be inflated by interference landing
	// disproportionately on the instrumented side; the lower of the two
	// is the better estimate of the true ratio (noise only ever adds
	// time, so the downward failure mode is bounded by the min clocks).
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		medianRatio := ratios[len(ratios)/2]
		minRatio := res.InstrumentedMS / res.BareMS
		res.OverheadFrac = math.Min(medianRatio, minRatio) - 1
	}
	res.SpansExported = ring.Total()
	res.SpansDropped = ring.Dropped()
	res.EventsPublished = events.Total()
	res.EventsDropped = events.Dropped()

	// Fidelity: observability must never change a decision.
	res.PlansMatch = true
	for b := 0; b < obsBenchBoxes; b++ {
		id := obsBenchBoxID(b)
		res.StepsPerRun += inst.Steps(id)
		bp, bok := bare.Plan(id)
		ip, iok := inst.Plan(id)
		if bok != iok {
			res.PlansMatch = false
			continue
		}
		if !bok {
			continue
		}
		if bp.Step != ip.Step || bp.TicketsBefore != ip.TicketsBefore ||
			bp.TicketsAfter != ip.TicketsAfter {
			res.PlansMatch = false
		}
		for v := range bp.CPUSizes {
			if bp.CPUSizes[v] != ip.CPUSizes[v] || bp.RAMSizes[v] != ip.RAMSizes[v] {
				res.PlansMatch = false
				break
			}
		}
	}
	return res, nil
}

// Render produces the observability self-overhead table.
func (r *ObsBenchResult) Render() *Table {
	t := &Table{
		Title:  "Observability self-overhead — bare hot loop vs spans + events + trace adoption",
		Header: []string{"plane", "wall", "overhead"},
	}
	t.AddRow("bare (nil tracer/events)", ms(r.BareMS), "—")
	t.AddRow("instrumented", ms(r.InstrumentedMS), fmt.Sprintf("%+.1f%%", 100*r.OverheadFrac))
	fidelity := "plans identical"
	if !r.PlansMatch {
		fidelity = "FIDELITY MISMATCH"
	}
	t.AddNote("%d boxes × %d VMs, %d ticks/box, %d steps; min of %d reps (%s)",
		r.Boxes, r.VMsPerBox, r.TicksPerBox, r.StepsPerRun, r.Reps, fidelity)
	t.AddNote("instrumented run recorded %d spans (%d dropped) and %d events (%d dropped); budget %.0f%%",
		r.SpansExported, r.SpansDropped, r.EventsPublished, r.EventsDropped, 100*r.OverheadBudget)
	return t
}
