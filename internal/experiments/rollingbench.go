package experiments

import (
	"fmt"

	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/trace"
)

// rollingBenchReuseMaxAge is the reuse run's re-search cadence: one
// full signature search per 10 windows, the rest rolled incrementally.
const rollingBenchReuseMaxAge = 10

// RollingBenchResult compares a rolling (online) ATM run
// (core.RunRolling) with model reuse off — every window re-runs the
// full signature search, the batch-identical behavior — against the
// same run with reuse on, where the retained signature set is rolled
// forward with the incremental window-roll kernels (rank-1 Cholesky
// up/downdates, incremental LB_Keogh envelopes) until drift or age
// forces a re-search. Both sides retain every step's result, so the
// clone cost sits in numerator and denominator alike. Researches and
// refits are counted through the engine's atm_engine_research_total /
// atm_engine_refit_total metrics, so this record doubles as an
// end-to-end check of the observability wiring. Wall-clock numbers are
// the minimum over Reps repetitions, which rejects scheduler noise.
// The struct is JSON-marshalable so `make rollingbench` can persist a
// machine-readable record next to the human table.
type RollingBenchResult struct {
	// Workload shape.
	VMs          int `json:"vms"`
	Samples      int `json:"samples"`
	TrainWindows int `json:"train_windows"`
	Horizon      int `json:"horizon"`
	Steps        int `json:"steps"`
	// Reps is the repetition count behind each min-of-N timing.
	Reps int `json:"reps"`
	// TicketsBefore is the aggregate ticket count under the original
	// capacities — the same for both runs, it does not depend on the
	// model.
	TicketsBefore int `json:"tickets_before"`

	// Full-search baseline (reuse off).
	BaselineMS        float64 `json:"baseline_ms"`
	BaselineSearches  int     `json:"baseline_searches"`
	BaselineTickets   int     `json:"baseline_tickets_after"`
	BaselineMeanMAPE  float64 `json:"baseline_mean_mape"`
	BaselineReduction float64 `json:"baseline_ticket_reduction"`

	// Model reuse through the incremental fast path.
	ReuseMS        float64 `json:"reuse_ms"`
	ReuseSearches  int     `json:"reuse_searches"`
	ReuseRefits    int     `json:"reuse_refits"`
	ReuseBudget    int     `json:"reuse_search_budget"` // ceil(steps / MaxAge)
	ReuseTickets   int     `json:"reuse_tickets_after"`
	ReuseMeanMAPE  float64 `json:"reuse_mean_mape"`
	ReuseReduction float64 `json:"reuse_ticket_reduction"`

	// Speedup of the incremental reuse run over the full-search
	// baseline.
	Speedup float64 `json:"speedup"`
	// WithinBudget reports the acceptance bound: on the stationary
	// trace the reuse run performed at most ReuseBudget searches.
	WithinBudget bool `json:"within_budget"`
}

// rollingBenchConfig is the shared pipeline configuration; only Reuse
// differs between the two runs. The MLP would dominate the timing and
// drown the search-vs-refit delta, so the bench uses the seasonal-naive
// temporal model. The spatial stage is DTW with the LB_Keogh-pruned
// approximate matrix — the method whose per-window search cost the
// incremental envelope and factorization reuse attacks.
func rollingBenchConfig(spd int, reuse bool) core.Config {
	cfg := core.Config{
		Spatial: spatial.Config{
			Method:    spatial.MethodDTW,
			DTWApprox: true,
			DTWWindow: spd / 8,
		},
		Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		TrainWindows: 2 * spd,
		Horizon:      spd / 2,
		Threshold:    0.6,
		Epsilon:      0.1,
	}
	if reuse {
		cfg.Reuse = core.ReusePolicy{Enabled: true, MaxAge: rollingBenchReuseMaxAge}
	}
	return cfg
}

// minTimeMS runs fn reps times and returns the fastest wall-clock
// time in milliseconds. reps must be positive.
func minTimeMS(reps int, fn func()) float64 {
	best := timeMS(fn)
	for r := 1; r < reps; r++ {
		if t := timeMS(fn); t < best {
			best = t
		}
	}
	return best
}

// RollingBench runs the 20-step rolling comparison on a stationary
// synthetic box.
func RollingBench(opts Options) (*RollingBenchResult, error) {
	opts = opts.withDefaults()
	reps := opts.Reps
	if reps <= 0 {
		reps = 5
	}
	// 4 boxes x 12 days at 96 samples/day: T = 192, H = 48 → 20 steps.
	tr := trace.Generate(trace.GenConfig{
		Boxes: 4, Days: 12, SamplesPerDay: 96, Seed: 7, GapFraction: 0,
	})
	gapFree := tr.GapFree()
	if len(gapFree) == 0 {
		return nil, fmt.Errorf("experiments: rollingbench trace has no gap-free box")
	}
	b := gapFree[0]
	spd := tr.SamplesPerDay

	research := obs.Default().Counter("atm_engine_research_total",
		"Full signature searches run by the staged pipeline (cold start, reuse disabled, or drift).")
	refit := obs.Default().Counter("atm_engine_refit_total",
		"Cheap refits of a retained signature set by the staged pipeline.")

	res := &RollingBenchResult{VMs: len(b.VMs), Samples: tr.Samples(), Reps: reps}
	cfg := rollingBenchConfig(spd, false)
	res.TrainWindows, res.Horizon = cfg.TrainWindows, cfg.Horizon

	// --- Baseline: full search every window. ---
	var base []core.RollingResult
	var err error
	r0 := research.Value()
	res.BaselineMS = minTimeMS(reps, func() { base, err = core.RunRolling(b, spd, cfg) })
	if err != nil {
		return nil, fmt.Errorf("experiments: rollingbench baseline: %w", err)
	}
	// Each rep is a fresh deterministic pipeline, so the counter delta
	// divides evenly across reps.
	res.BaselineSearches = int(research.Value()-r0) / reps
	res.Steps = len(base)
	bsum := core.SummarizeRolling(base)
	res.TicketsBefore = bsum.TicketsBefore
	res.BaselineTickets = bsum.TicketsAfter
	res.BaselineMeanMAPE = bsum.MeanMAPE
	if bsum.TicketsBefore > 0 {
		res.BaselineReduction = float64(bsum.TicketsBefore-bsum.TicketsAfter) / float64(bsum.TicketsBefore)
	}

	// --- Reuse: roll the retained model incrementally until drift/age. ---
	rcfg := rollingBenchConfig(spd, true)
	var reuse []core.RollingResult
	var f0 float64
	r0, f0 = research.Value(), refit.Value()
	res.ReuseMS = minTimeMS(reps, func() { reuse, err = core.RunRolling(b, spd, rcfg) })
	if err != nil {
		return nil, fmt.Errorf("experiments: rollingbench reuse: %w", err)
	}
	rsum := core.SummarizeRolling(reuse)
	res.ReuseSearches = int(research.Value()-r0) / reps
	res.ReuseRefits = int(refit.Value()-f0) / reps
	res.ReuseTickets = rsum.TicketsAfter
	res.ReuseMeanMAPE = rsum.MeanMAPE
	if rsum.TicketsBefore > 0 {
		res.ReuseReduction = float64(rsum.TicketsBefore-rsum.TicketsAfter) / float64(rsum.TicketsBefore)
	}

	maxAge := rcfg.Reuse.MaxAge
	if maxAge <= 0 {
		maxAge = core.DefaultReuseMaxAge
	}
	res.ReuseBudget = (res.Steps + maxAge - 1) / maxAge
	res.WithinBudget = res.ReuseSearches <= res.ReuseBudget
	if res.ReuseMS > 0 {
		res.Speedup = res.BaselineMS / res.ReuseMS
	}
	return res, nil
}

// Render produces the rolling model-reuse benchmark table.
func (r *RollingBenchResult) Render() *Table {
	t := &Table{
		Title:  "Rolling benchmark — incremental model reuse vs full search per window",
		Header: []string{"mode", "wall", "searches", "refits", "tickets after", "mean MAPE"},
	}
	t.AddRow("full search", ms(r.BaselineMS),
		fmt.Sprintf("%d", r.BaselineSearches), "0",
		fmt.Sprintf("%d", r.BaselineTickets), fmt.Sprintf("%.3f", r.BaselineMeanMAPE))
	t.AddRow("incremental reuse", ms(r.ReuseMS),
		fmt.Sprintf("%d", r.ReuseSearches), fmt.Sprintf("%d", r.ReuseRefits),
		fmt.Sprintf("%d", r.ReuseTickets), fmt.Sprintf("%.3f", r.ReuseMeanMAPE))
	budget := "within budget"
	if !r.WithinBudget {
		budget = "OVER BUDGET"
	}
	t.AddNote("%d VMs, %d samples, T=%d H=%d → %d steps, %d tickets before; min of %d reps; speedup %.2fx",
		r.VMs, r.Samples, r.TrainWindows, r.Horizon, r.Steps, r.TicketsBefore, r.Reps, r.Speedup)
	t.AddNote("reuse searched %d of %d steps (budget ceil(steps/%d) = %d: %s)",
		r.ReuseSearches, r.Steps, rollingBenchReuseMaxAge, r.ReuseBudget, budget)
	return t
}
