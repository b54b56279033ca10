package resize

import (
	"math"
	"slices"
	"sync"
)

// candScratch holds the per-call working slices of candidate
// generation. Candidate sets are rebuilt for every VM of every box —
// per-call map and slice allocations dominated the setup cost of the
// solvers — so the scratch is pooled and only the returned slices are
// freshly allocated.
type candScratch struct {
	vals   []float64
	demand []float64
}

var candPool = sync.Pool{New: func() any { return new(candScratch) }}

// candidates returns VM i's reduced candidate capacity set D'_i.
//
// The paper's Lemma 4.1 states the optimal size lies in Di ∪ {0}, but
// its own ticket-count example (Pi = {0,4,6,8,9,10} for D'i =
// {60,40,30,25,23,0}) counts a ticket when demand exceeds the
// candidate itself, which under the formulation R (ticket iff
// D_{i,t} > α·C_i) corresponds to candidates C = D/α: the ticket count
// #{t : D_{i,t} > αC} is a step function of C whose breakpoints are
// exactly the values D_{i,t}/α. We therefore build candidates as the
// unique α-scaled demand values — the rigorous version of the lemma —
// ε-rounded up, clamped into [LowerBound, Capacity], in strictly
// decreasing order, with the smallest admissible value (LowerBound, or
// 0 when unbounded) appended. Ticket counts are always evaluated
// against the ORIGINAL demands: ε applies only to the candidate sizes
// (paper: "ε is only applied on the predicted series").
//
// Deduplication is one sort plus an adjacent-equality sweep, and the
// per-candidate ticket counts come from a single merge of the
// descending candidate limits against the demand sorted descending —
// O(T log T) total instead of one ticket.Count pass per candidate —
// using the exact `demand > threshold·size` comparison ticket.Count
// uses, so counts are identical.
func (p *Problem) candidates(i int) (sizes []float64, tickets []int) {
	sc := candPool.Get().(*candScratch)
	sizes, tickets = p.candidatesInto(i, sc, nil, nil)
	candPool.Put(sc)
	return sizes, tickets
}

// candidatesInto is candidates writing into caller-provided slices
// (grown as needed) with caller-owned working scratch — the
// allocation-free form the reusable solver Scratch builds on. Results
// are identical to candidates.
func (p *Problem) candidatesInto(i int, sc *candScratch, sizes []float64, tickets []int) ([]float64, []int) {
	vm := p.VMs[i]
	vals := sc.vals[:0]
	clamp := func(v float64) float64 {
		if v < vm.LowerBound {
			v = vm.LowerBound
		}
		if v > p.Capacity {
			v = p.Capacity
		}
		return v
	}
	for _, d := range vm.Demand {
		// Breakpoint capacity: tickets step here. The (1+1e-12) nudge
		// keeps threshold*c >= d under floating-point rounding, so a
		// capacity sitting exactly on its breakpoint never tickets.
		c := d / p.Threshold * (1 + 1e-12)
		if p.Epsilon > 0 {
			c = math.Ceil(c/p.Epsilon) * p.Epsilon
		}
		vals = append(vals, clamp(c))
	}
	// The minimum admissible size: the lower bound (or 0).
	vals = append(vals, clamp(vm.LowerBound))
	sortDesc(vals)

	if cap(sizes) < len(vals) {
		sizes = make([]float64, 0, len(vals))
	}
	sizes = sizes[:0]
	for k, v := range vals {
		if k == 0 || v != sizes[len(sizes)-1] {
			sizes = append(sizes, v)
		}
	}

	// Merge ticket counting: demand sorted descending, candidate limits
	// visited in decreasing order, one monotone cursor.
	demand := append(sc.demand[:0], vm.Demand...)
	sortDesc(demand)
	if cap(tickets) < len(sizes) {
		// Capacity from the shape bound len(vals), not the deduped
		// count: one allocation per scratch lifetime, however the
		// distinct-candidate count drifts across windows.
		tickets = make([]int, 0, len(vals))
	}
	tickets = tickets[:len(sizes)]
	ptr := 0
	for k, v := range sizes {
		limit := p.Threshold * v
		if v <= 0 {
			limit = 0 // ticket.Count's degenerate no-allocation case
		}
		for ptr < len(demand) && demand[ptr] > limit {
			ptr++
		}
		tickets[k] = ptr
	}

	sc.vals, sc.demand = vals, demand
	return sizes, tickets
}

// sortDesc sorts in place, descending. slices.Sort plus an in-place
// reversal instead of sort.Sort(sort.Reverse(...)), which boxes two
// sort.Interface values per call — the multiset is identical either
// way, so downstream dedupe and merge counting see the same values.
func sortDesc(v []float64) {
	slices.Sort(v)
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}
