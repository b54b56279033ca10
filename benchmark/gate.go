package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"atm/internal/actuator"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/state"
)

// The correctness gate. Every check reads a public surface of the
// service (store totals, published plans, the event log, the actuation
// registry) and reports into run.problems; a run with any problem is
// not correct and its numbers are void.

// minLimit mirrors core.ApplyBox's floor on actuated capacities.
const minLimit = 1e-3

// planRec is a published plan read back at a quiescent point.
type planRec struct {
	box      string
	step     int
	cpu, ram []float64
}

// checkTotals verifies the store holds exactly the ticks the API
// accepted for every box.
func (r *run) checkTotals(want func(b int) int) {
	for b := range r.f.boxes {
		id := r.f.boxes[b].ID
		got, err := r.st.svc.Store().Total(id)
		if err != nil {
			r.problemf("store lost %s: %v", id, err)
		} else if got != want(b) {
			r.problemf("store holds %d ticks of %s, accepted %d", got, id, want(b))
		}
	}
}

// checkPlan verifies one plan against its box: finite non-negative
// sizes that fit the box's capacities, and a trust in [0, 1]. A size
// may be exactly 0: the MCKP solver gives an idle VM nothing, and
// core.ApplyBox floors what it actuates at minLimit.
func checkPlan(p *engine.Plan, meta *state.BoxMeta) error {
	if len(p.CPUSizes) != len(meta.VMs) || len(p.RAMSizes) != len(meta.VMs) {
		return fmt.Errorf("%d cpu / %d ram sizes for %d VMs", len(p.CPUSizes), len(p.RAMSizes), len(meta.VMs))
	}
	for _, res := range []struct {
		name  string
		sizes []float64
		cap   float64
	}{{"cpu", p.CPUSizes, meta.CPUCapGHz}, {"ram", p.RAMSizes, meta.RAMCapGB}} {
		sum := 0.0
		for v, s := range res.sizes {
			if !(s >= 0) || math.IsInf(s, 0) {
				return fmt.Errorf("%s size of VM %d is %v", res.name, v, s)
			}
			sum += s
		}
		if sum > res.cap+1e-9 {
			return fmt.Errorf("%s sizes sum to %v, box capacity %v", res.name, sum, res.cap)
		}
	}
	if !(p.Lambda >= 0 && p.Lambda <= 1) {
		return fmt.Errorf("lambda %v outside [0,1]", p.Lambda)
	}
	return nil
}

// checkPlans reads every box's latest plan back, verifies it, and
// verifies the backend is fully at target: for a box that published
// exactly one plan since the prev snapshot was taken, every VM's limit
// must be what the policy rails make of that plan's size given the
// snapshot's limit; for a box that published none, the snapshot itself.
func (r *run) checkPlans(prev map[string]actuator.Limits, evs []obs.Event) {
	published := make(map[string]int)
	for i := range evs {
		if evs[i].Type == "plan" {
			published[evs[i].Box]++
		}
	}
	now := r.st.reg.Snapshot()
	for b := range r.f.boxes {
		meta := &r.f.metas[b]
		p, ok := r.st.svc.Engine().Plan(meta.ID)
		if !ok {
			r.problemf("%s has no plan", meta.ID)
			continue
		}
		if err := checkPlan(&p, meta); err != nil {
			r.problemf("%s step %d: %v", meta.ID, p.Step, err)
			continue
		}
		r.finals = append(r.finals, planRec{box: meta.ID, step: p.Step, cpu: p.CPUSizes, ram: p.RAMSizes})
		if published[meta.ID] > 1 {
			continue // an intermediate write the harness did not see
		}
		for v, vm := range meta.VMs {
			want := prev[vm.ID]
			// The engine does not actuate degraded (stingy-fallback) plans.
			if published[meta.ID] == 1 && !p.Degraded {
				cur := want
				want, _ = rails.Apply(vm.ID, &cur, actuator.Limits{
					CPUGHz: math.Max(p.CPUSizes[v], minLimit),
					RAMGB:  math.Max(p.RAMSizes[v], minLimit),
				})
			}
			if got := now[vm.ID]; got != want {
				r.problemf("%s step %d: backend holds %+v for %s, target %+v", meta.ID, p.Step, got, vm.ID, want)
				break
			}
		}
	}
}

// checkEvents verifies the event log of the window: nothing dropped,
// no failure events, and every box's closed steps contiguous, each
// closed exactly once, together covering every step the script made
// due.
func (r *run) checkEvents() {
	if d := r.st.events.Dropped(); d != 0 {
		r.problemf("%d events dropped", d)
	}
	if r.rec != nil && r.rec.dropped != 0 {
		r.problemf("%d spans dropped", r.rec.dropped)
	}
	steps := make(map[string][]int)
	for i := range r.events {
		if ev := &r.events[i]; isStep(ev) {
			steps[ev.Box] = append(steps[ev.Box], ev.Step)
		}
	}
	if closed := r.closedSteps(); closed != r.dueSteps {
		r.problemf("%d steps closed, script made %d due", closed, r.dueSteps)
	}
	for box, ks := range steps {
		sort.Ints(ks)
		for i := 1; i < len(ks); i++ {
			if ks[i] != ks[i-1]+1 {
				r.problemf("%s closed steps %v: not contiguous, or one closed twice", box, ks)
				break
			}
		}
	}
}

// planTotals sums the window's plan events: how many, and the tickets
// they evaluated before and after resizing.
func (r *run) planTotals() (plans, before, after int) {
	for i := range r.events {
		if ev := &r.events[i]; ev.Type == "plan" {
			plans++
			before += ev.TicketsBefore
			after += ev.TicketsAfter
		}
	}
	return plans, before, after
}

// closedSteps counts the window's events that closed a due step.
func (r *run) closedSteps() int {
	n := 0
	for i := range r.events {
		if isStep(&r.events[i]) {
			n++
		}
	}
	return n
}

// eventFailures counts the window's failure events: hard step errors,
// actuation failures and evicted windows.
func (r *run) eventFailures() int {
	n := 0
	for i := range r.events {
		switch r.events[i].Type {
		case "step_error", "apply_error", "evicted":
			n++
		}
	}
	return n
}

// digest is FNV-1a over every closed step (box, step, tickets, trust)
// and every plan read back (box, step, sizes rounded to 1e-6), both in
// (box, step) order. Plans do not depend on timing, so the traced run
// (harness-driven passes, one worker) must reproduce the untraced
// run's digest exactly.
func (r *run) digest() string {
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(math.Round(v*1e6))))
			h.Write(buf[:])
		}
	}
	evs := append([]obs.Event(nil), r.events...)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Box != evs[b].Box {
			return evs[a].Box < evs[b].Box
		}
		return evs[a].Step < evs[b].Step
	})
	for i := range evs {
		if ev := &evs[i]; isStep(ev) {
			h.Write([]byte(ev.Box + "/" + ev.Type))
			put(float64(ev.Step), float64(ev.TicketsBefore), float64(ev.TicketsAfter), ev.Lambda)
		}
	}
	fin := append([]planRec(nil), r.finals...)
	sort.SliceStable(fin, func(a, b int) bool {
		if fin[a].box != fin[b].box {
			return fin[a].box < fin[b].box
		}
		return fin[a].step < fin[b].step
	})
	for _, p := range fin {
		h.Write([]byte(p.box))
		put(float64(p.step))
		put(p.cpu...)
		put(p.ram...)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
