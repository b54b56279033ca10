package resize

import (
	"math"

	"atm/internal/obs"
)

// Solver metrics: descent steps (heap pops) per greedy solve expose
// how far over capacity the boxes start, and repair moves show how
// much the promotion/exchange pass reinvests. Counters are bumped once
// per solve with locally accumulated totals, so the descent loop stays
// allocation- and atomic-free.
var (
	greedySolves = obs.Default().Counter("atm_resize_greedy_solves_total",
		"MCKP greedy solves completed.")
	greedyHeapPops = obs.Default().Counter("atm_resize_heap_pops_total",
		"Hull-edge heap pops during greedy descents.")
	repairMoves = obs.Default().Counter("atm_resize_repair_moves_total",
		"Promotion/exchange repair moves applied after descents.")
)

// Greedy solves the MCKP with the paper's minimal-algorithm-style
// heuristic (see GreedyInto, which it runs on a scratch of its own, so
// the returned sizes belong to the caller).
func (p *Problem) Greedy() (Allocation, error) {
	var sc Scratch
	return p.GreedyInto(&sc)
}

// hullEdge is one step of a VM's precomputed descent path: jump to
// candidate target, freeing free capacity at slope mtrv.
type hullEdge struct {
	mtrv   float64
	free   float64
	target int
	vm     int // set when the edge enters the heap
	next   int // index of the VM's next path edge
}

// repair is the shared post-descent pass ("shuffling capacity across
// VMs" in the paper's description of the minimal algorithm). Two move
// kinds, applied best-first until none improves:
//
//   - promotion: step a VM back up using leftover slack;
//   - exchange: demote VM i one step to fund promoting VM j, when
//     j's ticket gain exceeds i's ticket loss.
//
// Every applied move strictly decreases total tickets, so the loop
// terminates. pos is updated in place.
func (p *Problem) repair(cand [][]float64, pen [][]int, pos []int, total float64) {
	n := len(pos)
	tol := 1e-9 * math.Max(1, p.Capacity)
	moves := 0
	defer func() { repairMoves.Add(float64(moves)) }()
	for {
		slack := p.Capacity - total
		bestGain := 0
		bestCost := math.Inf(1)
		bestDemote, bestPromote := -1, -1
		consider := func(demote, promote, gain int, cost float64) {
			if gain > bestGain || (gain == bestGain && gain > 0 && cost < bestCost) {
				bestGain, bestCost = gain, cost
				bestDemote, bestPromote = demote, promote
			}
		}
		for j := 0; j < n; j++ {
			if pos[j] == 0 {
				continue
			}
			cost := cand[j][pos[j]-1] - cand[j][pos[j]]
			gain := pen[j][pos[j]] - pen[j][pos[j]-1]
			// Pure promotion from slack.
			if cost <= slack+tol {
				consider(-1, j, gain, cost)
			}
			// Exchange funded by demoting some other VM one step.
			for i := 0; i < n; i++ {
				if i == j || pos[i]+1 >= len(cand[i]) {
					continue
				}
				freed := cand[i][pos[i]] - cand[i][pos[i]+1]
				loss := pen[i][pos[i]+1] - pen[i][pos[i]]
				if cost <= slack+freed+tol {
					consider(i, j, gain-loss, cost-freed)
				}
			}
		}
		if bestPromote == -1 || bestGain <= 0 {
			break
		}
		if bestDemote >= 0 {
			total -= cand[bestDemote][pos[bestDemote]] - cand[bestDemote][pos[bestDemote]+1]
			pos[bestDemote]++
		}
		total += cand[bestPromote][pos[bestPromote]-1] - cand[bestPromote][pos[bestPromote]]
		pos[bestPromote]--
		moves++
	}
}
