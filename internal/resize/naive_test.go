package resize

import (
	"fmt"
	"math"
	"sort"

	"atm/internal/ticket"
)

// GreedyNaive is the original descent: every step rescans all
// candidates of all VMs for the best move. O(steps·n·K) against
// Greedy's O(n·K² + steps·log n) path precompute + heap race; kept as
// the equality oracle — both solvers produce identical allocations.
func (p *Problem) GreedyNaive() (Allocation, error) {
	if err := p.validate(); err != nil {
		return Allocation{}, err
	}
	n := len(p.VMs)
	if n == 0 {
		return Allocation{Sizes: []float64{}}, nil
	}
	cand := make([][]float64, n)
	pen := make([][]int, n)
	pos := make([]int, n)
	var total float64
	for i := 0; i < n; i++ {
		cand[i], pen[i] = p.candidates(i)
		total += cand[i][0]
	}
	// Capacity comparisons tolerate accumulated floating-point error:
	// candidate sums like 16.6_ + 83.3_ can land epsilon above an exact
	// capacity of 100 and must not trigger an extra (ticket-costing)
	// step-down.
	capTol := p.Capacity + 1e-9*math.Max(1, p.Capacity)

	// Feasibility: even the smallest candidates (lower bounds) may not
	// fit.
	var minTotal float64
	for i := 0; i < n; i++ {
		minTotal += cand[i][len(cand[i])-1]
	}
	if minTotal > capTol {
		return Allocation{}, fmt.Errorf("need %v, have %v: %w", minTotal, p.Capacity, ErrInfeasible)
	}

	for total > capTol {
		best, bestTarget := -1, -1
		bestMTRV := math.Inf(1)
		bestFree := 0.0
		for i := 0; i < n; i++ {
			o := pos[i]
			// Best multi-step move for VM i: hull edge from o.
			for k := o + 1; k < len(cand[i]); k++ {
				free := cand[i][o] - cand[i][k]
				if free <= 0 {
					continue
				}
				mtrv := float64(pen[i][k]-pen[i][o]) / free
				if mtrv < bestMTRV || (mtrv == bestMTRV && free > bestFree) {
					best, bestTarget, bestMTRV, bestFree = i, k, mtrv, free
				}
			}
		}
		if best == -1 {
			return Allocation{}, fmt.Errorf("stuck at total %v: %w", total, ErrInfeasible)
		}
		total -= cand[best][pos[best]] - cand[best][bestTarget]
		pos[best] = bestTarget
	}

	p.repair(cand, pen, pos, total)

	sizes := make([]float64, n)
	for i := 0; i < n; i++ {
		sizes[i] = cand[i][pos[i]]
	}
	return Allocation{Sizes: sizes, Tickets: p.tickets(sizes)}, nil
}

// candidatesNaive is the original reference implementation — map-based
// deduplication and one ticket.Count pass per candidate. Kept as the
// equality oracle for the pooled merge-counting path.
func (p *Problem) candidatesNaive(i int) (sizes []float64, tickets []int) {
	vm := p.VMs[i]
	seen := map[float64]bool{}
	var vals []float64
	add := func(v float64) {
		if v < vm.LowerBound {
			v = vm.LowerBound
		}
		if v > p.Capacity {
			v = p.Capacity
		}
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	for _, d := range vm.Demand {
		c := d / p.Threshold * (1 + 1e-12)
		if p.Epsilon > 0 {
			c = math.Ceil(c/p.Epsilon) * p.Epsilon
		}
		add(c)
	}
	add(vm.LowerBound)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	tickets = make([]int, len(vals))
	for k, v := range vals {
		tickets[k] = ticket.Count(vm.Demand, v, p.Threshold)
	}
	return vals, tickets
}
