// Package score keeps the online forecast scorecard: every published
// plan is compared against the realized demand of its evaluation
// horizon, per box and fleet-wide. The paper's offline accuracy tables
// (MAPE, ticket counts before/after sizing) become live metrics — a
// forecast that degrades in production shows up on the next scrape,
// not in the next batch re-run.
//
// The Board sits on the engine's step path, so Observe is allocation-
// free after a box's first step and takes only that box's shard lock.
package score

import (
	"math"
	"sync"

	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/ticket"
	"atm/internal/trace"
)

// MAPE is a fraction of actual demand, so the buckets span "excellent"
// (1%) to "unusable" (2× actual).
var mapeBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1, 1.5, 2}

var (
	scoredSteps = obs.Default().Counter("atm_forecast_scored_steps_total",
		"Plan steps scored against realized demand (degraded steps excluded).")
	degradedSteps = obs.Default().Counter("atm_forecast_degraded_steps_total",
		"Degraded (stingy-fallback) steps observed by the forecast scorer; these carry no forecast to score.")
	mapeHist = obs.Default().Histogram("atm_forecast_mape",
		"Realized mean MAPE per scored step (fraction of actual demand).", mapeBuckets)
	fleetMAPE = obs.Default().Gauge("atm_forecast_mape_fleet",
		"Exponentially weighted fleet-wide mean of per-step realized MAPE (alpha 0.05).")
	ticketsPredicted = obs.Default().Counter("atm_tickets_predicted_total",
		"Tickets the published plans predicted over their evaluation horizons (forecast demand vs plan sizes).")
	ticketsRealized = obs.Default().Counter("atm_tickets_realized_total",
		"Tickets realized demand issued over the same horizons under the plan sizes.")
	overUnits = obs.Default().Counter("atm_forecast_overprovision_units_total",
		"Capacity units (GHz+GB) allocated above realized demand, averaged per horizon window and summed over scored steps.")
	underUnits = obs.Default().Counter("atm_forecast_underprovision_units_total",
		"Capacity units (GHz+GB) of realized demand above the allocation, averaged per horizon window and summed over scored steps.")
)

// RollingWindow is how many recent scored steps the per-box rolling
// MAPE averages over.
const RollingWindow = 16

// fleetAlpha is the EWMA weight of the newest step in the fleet gauge.
const fleetAlpha = 0.05

// Card is one box's forecast scorecard: how the published plans have
// been tracking reality. All ticket and unit fields are cumulative
// since the box first appeared; Last* fields are from the most recent
// scored step. MAPE fields are omitted (zero) until a non-degraded
// step scores.
type Card struct {
	Box   string `json:"box"`
	Shard int    `json:"shard"`
	// Steps counts scored (non-degraded) steps; DegradedSteps counts
	// stingy-fallback steps that carried no forecast.
	Steps         int `json:"steps"`
	DegradedSteps int `json:"degraded_steps,omitempty"`
	// LastMAPE is the most recent step's realized mean MAPE;
	// RollingMAPE averages the last RollingN scored steps
	// (RollingN ≤ RollingWindow).
	LastMAPE    float64 `json:"last_mape"`
	RollingMAPE float64 `json:"rolling_mape"`
	RollingN    int     `json:"rolling_n"`
	// TicketsPredicted/TicketsRealized are cumulative CPU+RAM ticket
	// counts over the evaluation horizons, under the plan's sizes.
	TicketsPredicted int `json:"tickets_predicted"`
	TicketsRealized  int `json:"tickets_realized"`
	// Over/under-provision magnitude: capacity units (GHz+GB) between
	// allocation and realized demand, averaged per horizon window.
	LastOverUnits  float64 `json:"last_over_units"`
	LastUnderUnits float64 `json:"last_under_units"`
	OverUnits      float64 `json:"over_units_total"`
	UnderUnits     float64 `json:"under_units_total"`
}

// card is the mutable per-box state behind a Card: the public snapshot
// plus the rolling-MAPE ring.
type card struct {
	Card
	ring [RollingWindow]float64
	idx  int
	fill int
	sum  float64
}

type boardShard struct {
	mu    sync.Mutex
	boxes map[string]*card
}

// Board scores every engine step against realized demand, sharded the
// same way as the engine so concurrent shard passes never contend on
// one lock. Safe for concurrent use.
type Board struct {
	cfg    core.Config
	shards []boardShard

	fleetMu   sync.Mutex
	fleetEWMA float64
	fleetInit bool
}

// NewBoard returns a scoring board with the given shard count
// (< 1 selects 1). cfg supplies the ticket threshold and window split
// used to evaluate plans.
func NewBoard(shards int, cfg core.Config) *Board {
	if shards < 1 {
		shards = 1
	}
	b := &Board{cfg: cfg, shards: make([]boardShard, shards)}
	for i := range b.shards {
		b.shards[i].boxes = make(map[string]*card)
	}
	return b
}

// Observe scores one step result for a box on the given shard. It is
// allocation-free after the box's first observation and must be called
// from at most one goroutine per shard (the engine's shard pass), with
// concurrent calls across shards fine.
func (b *Board) Observe(id string, shard int, res *core.BoxResult) {
	if res == nil {
		return
	}
	sh := &b.shards[((shard%len(b.shards))+len(b.shards))%len(b.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.boxes[id]
	if c == nil {
		c = &card{}
		c.Box = id
		c.Shard = shard
		sh.boxes[id] = c
	}

	realized := 0
	if res.CPU != nil {
		realized += res.CPU.TicketsAfter
	}
	if res.RAM != nil {
		realized += res.RAM.TicketsAfter
	}
	c.TicketsRealized += realized
	ticketsRealized.Add(float64(realized))

	if res.Degraded || res.Prediction == nil {
		c.DegradedSteps++
		degradedSteps.Inc()
		return
	}

	m := res.MeanMAPE()
	if !math.IsNaN(m) && !math.IsInf(m, 0) {
		c.LastMAPE = m
		if c.fill == RollingWindow {
			c.sum -= c.ring[c.idx]
		} else {
			c.fill++
		}
		c.ring[c.idx] = m
		c.idx = (c.idx + 1) % RollingWindow
		c.sum += m
		c.RollingMAPE = c.sum / float64(c.fill)
		c.RollingN = c.fill
		mapeHist.Observe(m)

		b.fleetMu.Lock()
		if !b.fleetInit {
			b.fleetEWMA = m
			b.fleetInit = true
		} else {
			b.fleetEWMA += fleetAlpha * (m - b.fleetEWMA)
		}
		fleetMAPE.Set(b.fleetEWMA)
		b.fleetMu.Unlock()
	}

	c.Steps++
	scoredSteps.Inc()
	b.scoreSizing(c, res)
}

// scoreSizing compares the plan's sizes against forecast and realized
// demand over the evaluation horizon: predicted ticket count, and the
// average per-window over/under-provision magnitude in capacity units.
func (b *Board) scoreSizing(c *card, res *core.BoxResult) {
	box := res.Box
	if box == nil {
		return
	}
	train, horizon := b.cfg.TrainWindows, b.cfg.Horizon
	predicted := 0
	var over, under float64
	windows := 0
	for vm := range box.VMs {
		v := &box.VMs[vm]
		for r := trace.CPU; r <= trace.RAM; r++ {
			run := res.CPU
			if r == trace.RAM {
				run = res.RAM
			}
			if run == nil || vm >= len(run.Sizes) {
				continue
			}
			size := run.Sizes[vm]
			// Predicted tickets: forecast demand vs the plan's size.
			i := trace.SeriesIndex(vm, r)
			if i < len(res.Prediction.Demand) {
				predicted += ticket.Count(res.Prediction.Demand[i], size, b.cfg.Threshold)
			}
			// Realized provisioning gap: usage percent × allocated
			// capacity is the demand (computed inline — vm.Demand
			// allocates a scaled copy).
			usage := v.Usage(r)
			cap := v.Capacity(r)
			end := train + horizon
			if end > len(usage) {
				end = len(usage)
			}
			for j := train; j < end; j++ {
				d := usage[j] * cap / 100
				if math.IsNaN(d) {
					continue
				}
				if size > d {
					over += size - d
				} else {
					under += d - size
				}
				windows++
			}
		}
	}
	if horizon > 0 && windows > 0 {
		over /= float64(horizon)
		under /= float64(horizon)
	}
	c.TicketsPredicted += predicted
	c.LastOverUnits = over
	c.LastUnderUnits = under
	c.OverUnits += over
	c.UnderUnits += under
	ticketsPredicted.Add(float64(predicted))
	overUnits.Add(over)
	underUnits.Add(under)
}

// MAPE returns the box's rolling forecast error — the mean realized
// MAPE over its last n scored steps (n ≤ RollingWindow) — reporting
// ok=false when the box has never been observed or has no scored
// (non-degraded) step yet. Unlike Snapshot it copies no Card, so the
// call is allocation-free: it sits on the engine's step path, where
// the trust-blending controller reads it every step.
func (b *Board) MAPE(id string) (mape float64, n int, ok bool) {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		if c, found := sh.boxes[id]; found {
			mape, n = c.RollingMAPE, c.RollingN
			sh.mu.Unlock()
			return mape, n, n > 0
		}
		sh.mu.Unlock()
	}
	return 0, 0, false
}

// Snapshot returns a copy of the box's scorecard, reporting false when
// the box has never been observed.
func (b *Board) Snapshot(id string) (Card, bool) {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		if c, ok := sh.boxes[id]; ok {
			out := c.Card
			sh.mu.Unlock()
			return out, true
		}
		sh.mu.Unlock()
	}
	return Card{}, false
}
