package experiments

import (
	"context"
	"fmt"
	"math"

	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/report"
	"atm/internal/spatial"
	"atm/internal/trace"
)

// robustFixedLambdas is the trust sweep: the consistency end (λ=1,
// pure forecast), the robustness end (λ=0, pure reactive peak-demand)
// and three blends between them.
var robustFixedLambdas = []float64{0, 0.25, 0.5, 0.75, 1}

// robustAdversaryHorizons is where the adversary strikes, in horizons
// past the initial training window — late enough that the model and
// the trust controller are warmed up on stationary behavior.
const robustAdversaryHorizons = 4

// RobustCell is one (family, trust mode) measurement.
type RobustCell struct {
	// Mode labels the trust policy ("λ=0.25", "adaptive").
	Mode string `json:"mode"`
	// Lambda is the pinned trust (-1 for adaptive).
	Lambda float64 `json:"lambda"`
	// TicketsBefore/TicketsAfter aggregate CPU+RAM tickets over every
	// evaluation horizon under the published (blended) sizes.
	TicketsBefore int `json:"tickets_before"`
	TicketsAfter  int `json:"tickets_after"`
	// MeanMAPE is the realized forecast error over scored steps (the
	// same for every mode of a family — trust changes sizes, not
	// forecasts); MeanLambda is the trust trajectory's mean.
	MeanMAPE   float64 `json:"mean_mape"`
	MeanLambda float64 `json:"mean_lambda"`
	// BlendedSteps counts steps whose plan was mixed toward the safe
	// allocation (λ < 1 on a non-degraded step), FlooredSteps those whose
	// trust was floored outright (severe drift or a degraded fallback),
	// DegradedSteps the stingy-fallback steps.
	BlendedSteps  int `json:"blended_steps"`
	FlooredSteps  int `json:"floored_steps"`
	DegradedSteps int `json:"degraded_steps,omitempty"`
}

// RobustFamily is the trust sweep under one adversary family.
type RobustFamily struct {
	// Family is the trace.Adversary name.
	Family string `json:"family"`
	// Cells holds the fixed-λ sweep (in robustFixedLambdas order)
	// followed by the adaptive run.
	Cells []RobustCell `json:"cells"`
	// EndpointTickets is min(λ=0, λ=1) — the better of the two pure
	// strategies, the yardstick a useful adaptive controller must
	// match. Tolerance is the allowed slack; AdaptiveOK reports
	// adaptive ≤ EndpointTickets + Tolerance.
	EndpointTickets int  `json:"endpoint_tickets"`
	Tolerance       int  `json:"tolerance"`
	AdaptiveOK      bool `json:"adaptive_ok"`
}

// RobustBenchResult is the consistency/robustness frontier of the
// trust-parameterized controller: for each adversary family, realized
// tickets under every fixed trust level and under online adaptation.
// The two acceptance bounds are the tentpole's contract:
//
//   - StationaryParity: on the unperturbed trace, trust pinned at λ=1
//     is bit-identical to the controller-free pipeline — robustness
//     costs nothing when the forecast is good and untouched.
//   - AllAdaptiveOK: on every family, the adaptive controller's
//     tickets stay within Tolerance of the better pure strategy —
//     nobody has to guess the right λ per incident.
//
// JSON-marshalable so `make robustbench` persists a machine-readable
// record (BENCH_robust.json) for `make robustguard` to enforce.
type RobustBenchResult struct {
	// Workload shape.
	VMs          int `json:"vms"`
	Samples      int `json:"samples"`
	TrainWindows int `json:"train_windows"`
	Horizon      int `json:"horizon"`
	Steps        int `json:"steps"`
	// AdversaryStart is the sample index where perturbations begin.
	AdversaryStart int `json:"adversary_start"`
	// Families holds one sweep per adversary family, stationary first.
	Families []RobustFamily `json:"families"`
	// StationaryParity: fixed λ=1 ≡ controller-off on the stationary
	// trace (steps, tickets and MAPE all bit-equal).
	StationaryParity bool `json:"stationary_parity"`
	// AllAdaptiveOK ands the per-family AdaptiveOK bounds.
	AllAdaptiveOK bool `json:"all_adaptive_ok"`
}

// robustBenchConfig is the pipeline configuration for the robustness
// sweep: a seasonal-naive forecaster (the MLP would dominate a 20-step
// sweep per family), the LB_Keogh-pruned DTW search with model reuse —
// one full search per 10 windows, the rest rolled incrementally — and
// degraded mode (the worst-case families must degrade, not abort).
// Reuse also arms the drift detector whose severe-drift signal floors
// the controller's trust.
func robustBenchConfig(spd int) core.Config {
	return core.Config{
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
		Reuse:        core.ReusePolicy{Enabled: true, MaxAge: 10},
		Degraded:     true,
	}
}

// RobustBench sweeps fixed and adaptive trust against every adversary
// family on one stationary box.
func RobustBench(opts Options) (*RobustBenchResult, error) {
	opts = opts.withDefaults()
	// 12 days at 96 samples/day → T = 192, H = 48, 20 rolling steps.
	gen := trace.GenConfig{Boxes: 4, Days: 12, SamplesPerDay: 96, Seed: 7}
	base := trace.Generate(gen)
	gapFree := base.GapFree()
	if len(gapFree) == 0 {
		return nil, fmt.Errorf("experiments: robustbench trace has no gap-free box")
	}
	boxID := gapFree[0].ID
	spd := base.SamplesPerDay
	cfg := robustBenchConfig(spd)

	res := &RobustBenchResult{
		VMs:            len(gapFree[0].VMs),
		Samples:        base.Samples(),
		TrainWindows:   cfg.TrainWindows,
		Horizon:        cfg.Horizon,
		AdversaryStart: cfg.TrainWindows + robustAdversaryHorizons*cfg.Horizon,
		AllAdaptiveOK:  true,
	}

	// perturbed regenerates the box fresh and applies the family —
	// ApplyAdversary mutates in place, and every mode of a family must
	// see an identical trace.
	perturbed := func(fam trace.Adversary) (*trace.Box, error) {
		tr := trace.Generate(gen)
		var b *trace.Box
		for i := range tr.Boxes {
			if tr.Boxes[i].ID == boxID {
				b = &tr.Boxes[i]
			}
		}
		err := trace.ApplyAdversary(b, trace.AdversaryConfig{
			Family: fam, Start: res.AdversaryStart, SamplesPerDay: spd, Seed: opts.Seed,
		})
		return b, err
	}

	for _, fam := range trace.Adversaries() {
		family := RobustFamily{Family: string(fam)}
		var pureForecast, pureReactive int
		for _, l := range robustFixedLambdas {
			b, err := perturbed(fam)
			if err != nil {
				return nil, fmt.Errorf("experiments: robustbench %s: %w", fam, err)
			}
			s, steps, err := robustReplay(b, spd, cfg, control.Config{Enabled: true, Fixed: true, Lambda: l})
			if err != nil {
				return nil, fmt.Errorf("experiments: robustbench %s λ=%v: %w", fam, l, err)
			}
			res.Steps = steps
			s.Mode, s.Lambda = fmt.Sprintf("λ=%.2f", l), l
			family.Cells = append(family.Cells, s)
			switch l {
			case 0:
				pureReactive = s.TicketsAfter
			case 1:
				pureForecast = s.TicketsAfter
			}

			// Stationary parity: λ=1 on the untouched trace must be
			// bit-identical to the controller-free run.
			if fam == trace.AdversaryNone && l == 1 {
				b2, _ := perturbed(fam)
				off, offSteps, err := robustReplay(b2, spd, cfg, control.Config{})
				if err != nil {
					return nil, fmt.Errorf("experiments: robustbench control-off: %w", err)
				}
				res.StationaryParity = offSteps == steps &&
					off.TicketsBefore == s.TicketsBefore &&
					off.TicketsAfter == s.TicketsAfter &&
					off.MeanMAPE == s.MeanMAPE
			}
		}

		b, err := perturbed(fam)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustbench %s: %w", fam, err)
		}
		s, _, err := robustReplay(b, spd, cfg, control.Config{Enabled: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: robustbench %s adaptive: %w", fam, err)
		}
		s.Mode, s.Lambda = "adaptive", -1
		family.Cells = append(family.Cells, s)

		family.EndpointTickets = pureForecast
		if pureReactive < pureForecast {
			family.EndpointTickets = pureReactive
		}
		family.Tolerance = robustTolerance(family.EndpointTickets)
		family.AdaptiveOK = s.TicketsAfter <= family.EndpointTickets+family.Tolerance
		if !family.AdaptiveOK {
			res.AllAdaptiveOK = false
		}
		res.Families = append(res.Families, family)
	}
	return res, nil
}

// robustReplay replays the box through the engine under the trust
// policy and folds every published plan into one cell, its mode left to
// the caller: the tickets of the published (blended) sizes and the
// realized MAPE of the non-degraded steps. With the controller off
// every step counts λ = 1. It returns the step count too.
func robustReplay(b *trace.Box, spd int, ccfg core.Config, ctl control.Config) (r RobustCell, steps int, err error) {
	var mapeSum, lambdaSum float64
	scored := 0
	cfg := engine.Config{Core: ccfg, SamplesPerDay: spd, Control: ctl}
	err = engine.Replay(context.Background(), b, cfg, func(p engine.Plan, res *core.BoxResult, err error) error {
		if res == nil {
			return err
		}
		steps++
		lambda := 1.0
		if ctl.Enabled {
			lambda = p.Lambda
			if p.BlendReason == control.ReasonSevereDrift || p.BlendReason == control.ReasonDegraded {
				r.FlooredSteps++
			}
			if !res.Degraded && lambda < 1 {
				r.BlendedSteps++
			}
		}
		lambdaSum += lambda
		if res.Degraded {
			r.DegradedSteps++
		} else if m := res.MeanMAPE(); !math.IsNaN(m) && !math.IsInf(m, 0) {
			mapeSum += m
			scored++
		}
		r.TicketsBefore += res.CPU.TicketsBefore + res.RAM.TicketsBefore
		r.TicketsAfter += res.CPU.TicketsAfter + res.RAM.TicketsAfter
		return nil
	})
	if scored > 0 {
		r.MeanMAPE = mapeSum / float64(scored)
	}
	if steps > 0 {
		r.MeanLambda = lambdaSum / float64(steps)
	}
	return r, steps, err
}

// robustTolerance is the adaptive slack: 10% of the endpoint ticket
// count, floored at 3 tickets so near-zero endpoints don't demand
// exact ties.
func robustTolerance(endpoint int) int {
	tol := int(math.Ceil(0.10 * float64(endpoint)))
	if tol < 3 {
		tol = 3
	}
	return tol
}

// Render formats the frontier as one table: a row per (family, mode).
func (r *RobustBenchResult) Render() *Table {
	t := &Table{
		Title:  "Robustness frontier — tickets by adversary family and trust mode",
		Header: []string{"family", "mode", "tickets", "mean MAPE", "mean λ", "blended", "floored"},
	}
	for _, fam := range r.Families {
		for _, c := range fam.Cells {
			t.AddRow(fam.Family, c.Mode,
				fmt.Sprintf("%d", c.TicketsAfter),
				fmt.Sprintf("%.3f", c.MeanMAPE),
				fmt.Sprintf("%.2f", c.MeanLambda),
				fmt.Sprintf("%d", c.BlendedSteps),
				fmt.Sprintf("%d", c.FlooredSteps))
		}
		t.AddNote("%s: adaptive %d vs best endpoint %d (+%d tol) → ok=%v",
			fam.Family, fam.Cells[len(fam.Cells)-1].TicketsAfter,
			fam.EndpointTickets, fam.Tolerance, fam.AdaptiveOK)
	}
	t.AddNote("workload: %d VMs, %d samples (T=%d H=%d, %d steps), adversary at sample %d",
		r.VMs, r.Samples, r.TrainWindows, r.Horizon, r.Steps, r.AdversaryStart)
	t.AddNote("stationary λ=1 parity with controller-off: %v", r.StationaryParity)
	return t
}

// RenderSVG draws the frontier: grouped bars of realized tickets, one
// category per adversary family, one bar per trust mode.
func (r *RobustBenchResult) RenderSVG() (string, error) {
	if len(r.Families) == 0 {
		return "", fmt.Errorf("experiments: empty robustness result")
	}
	categories := make([]string, 0, len(r.Families))
	for _, fam := range r.Families {
		categories = append(categories, fam.Family)
	}
	nModes := len(r.Families[0].Cells)
	groups := make([]report.BarGroup, 0, nModes)
	for m := 0; m < nModes; m++ {
		g := report.BarGroup{Label: r.Families[0].Cells[m].Mode}
		for _, fam := range r.Families {
			g.Values = append(g.Values, float64(fam.Cells[m].TicketsAfter))
		}
		groups = append(groups, g)
	}
	return report.BarChart("Robustness frontier — realized tickets by adversary and trust",
		"tickets after sizing", categories, groups)
}
