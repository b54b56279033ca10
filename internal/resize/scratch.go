package resize

import (
	"fmt"
	"math"
)

// Scratch holds every slice a greedy solve needs, so a steady-state
// caller (the pipeline's per-box resize loop) can solve repeatedly
// without heap allocations. All buffers grow on demand and are reused
// across calls; a Scratch serves problems of any shape but must not be
// shared between concurrent solves.
type Scratch struct {
	cs    candScratch
	cand  [][]float64
	pen   [][]int
	pos   []int
	paths [][]hullEdge
	heap  []hullEdge
	sizes []float64
}

// grow ensures the per-VM slice headers cover n VMs.
func (sc *Scratch) grow(n int) {
	for len(sc.cand) < n {
		sc.cand = append(sc.cand, nil)
		sc.pen = append(sc.pen, nil)
		sc.paths = append(sc.paths, nil)
	}
	if cap(sc.pos) < n {
		sc.pos = make([]int, n)
	}
	if cap(sc.sizes) < n {
		sc.sizes = make([]float64, n)
	}
}

// GreedyInto solves the MCKP with the paper's minimal-algorithm-style
// heuristic. Every VM starts at its largest candidate (fewest
// tickets); while the total exceeds the box capacity, each VM offers
// its best multi-step move — the candidate k below its current
// position o minimizing the marginal ticket reduction value
//
//	MTRV = (P[k] - P[o]) / (D'[o] - D'[k])
//
// (the hull edge from the current position; a plain one-step MTRV is
// blind to a cheap large capacity release hidden behind an expensive
// small one) — and the VM with the lowest MTRV jumps. Ties break
// toward the VM freeing more capacity, then by index, keeping the
// algorithm deterministic. Promotion/exchange repair passes then
// reinvest leftover slack.
//
// The descent's best moves always land on vertices of the lower convex
// hull of the VM's (size, tickets) candidates: from a hull vertex, the
// MTRV-minimizing candidate (ties toward more freed capacity) is the
// next hull vertex. GreedyInto therefore precomputes each VM's hull
// path once — using the exact same slope arithmetic and comparisons as
// the per-step scan, so the path is bit-identical — and races the
// per-VM hull edges in a min-heap keyed (MTRV asc, freed capacity desc,
// VM index asc): O(log n) per descent step instead of an O(n·K) rescan.
// The tests keep the rescan loop (GreedyNaive) as the equality reference.
//
// All intermediate and result state lives in the scratch: the returned
// Allocation's Sizes slice aliases scratch memory and stays valid only
// until the next GreedyInto call with the same scratch.
func (p *Problem) GreedyInto(sc *Scratch) (Allocation, error) {
	if err := p.validate(); err != nil {
		return Allocation{}, err
	}
	n := len(p.VMs)
	sc.grow(n)
	if n == 0 {
		return Allocation{Sizes: []float64{}}, nil
	}
	cand, pen := sc.cand[:n], sc.pen[:n]
	pos := sc.pos[:n]
	var total float64
	for i := 0; i < n; i++ {
		cand[i], pen[i] = p.candidatesInto(i, &sc.cs, cand[i][:0], pen[i][:0])
		pos[i] = 0
		total += cand[i][0]
	}
	capTol := p.Capacity + 1e-9*math.Max(1, p.Capacity)

	var minTotal float64
	for i := 0; i < n; i++ {
		minTotal += cand[i][len(cand[i])-1]
	}
	if minTotal > capTol {
		return Allocation{}, fmt.Errorf("need %v, have %v: %w", minTotal, p.Capacity, ErrInfeasible)
	}

	paths := sc.paths[:n]
	h := sc.heap[:0]
	for i := 0; i < n; i++ {
		// Shape-bound capacity (a hull path strictly descends the ≤
		// |Demand|+1 candidates), so path growth never reallocates in
		// steady state however the hull's edge count varies.
		if m := len(p.VMs[i].Demand) + 1; cap(paths[i]) < m {
			paths[i] = make([]hullEdge, 0, m)
		}
		paths[i] = hullPathInto(cand[i], pen[i], paths[i][:0])
		if len(paths[i]) > 0 {
			e := paths[i][0]
			e.vm, e.next = i, 1
			h = append(h, e)
		}
	}
	initEdges(h)

	pops := 0
	for total > capTol {
		if len(h) == 0 {
			return Allocation{}, fmt.Errorf("stuck at total %v: %w", total, ErrInfeasible)
		}
		var e hullEdge
		e, h = popEdge(h)
		pops++
		i := e.vm
		total -= cand[i][pos[i]] - cand[i][e.target]
		pos[i] = e.target
		if e.next < len(paths[i]) {
			ne := paths[i][e.next]
			ne.vm, ne.next = i, e.next+1
			h = pushEdge(h, ne)
		}
	}
	sc.heap = h[:0]

	p.repair(cand, pen, pos, total)
	greedySolves.Inc()
	greedyHeapPops.Add(float64(pops))

	sizes := sc.sizes[:n]
	for i := 0; i < n; i++ {
		sizes[i] = cand[i][pos[i]]
	}
	return Allocation{Sizes: sizes, Tickets: p.tickets(sizes)}, nil
}

// hullPathInto walks the lower convex hull of one VM's (size, tickets)
// candidates starting from candidate 0, appending the edges to a
// caller-owned slice. It replays the naive per-step scan's slope
// arithmetic and tie-breaking verbatim so the visited vertices — and
// the (mtrv, free) values the cross-VM race is keyed on — are
// bit-identical to GreedyNaive's.
func hullPathInto(cand []float64, pen []int, path []hullEdge) []hullEdge {
	o := 0
	for {
		target := -1
		mtrv := math.Inf(1)
		free := 0.0
		for k := o + 1; k < len(cand); k++ {
			f := cand[o] - cand[k]
			if f <= 0 {
				continue
			}
			m := float64(pen[k]-pen[o]) / f
			if m < mtrv || (m == mtrv && f > free) {
				target, mtrv, free = k, m, f
			}
		}
		if target == -1 {
			return path
		}
		path = append(path, hullEdge{mtrv: mtrv, free: free, target: target})
		o = target
	}
}

// The manual min-heap below stands in for container/heap, whose
// Push/Pop box every hullEdge through an interface value — one
// allocation per descent step. It orders hull edges the way the naive
// cross-VM scan resolves them: lowest MTRV first, then most freed
// capacity, then lowest VM index (the naive scan's first-wins behavior
// under strict comparisons). (mtrv, free, vm) is a total order and each
// VM contributes at most one live edge, so the pop sequence is fully
// determined.

func edgeLess(a, b hullEdge) bool {
	if a.mtrv != b.mtrv {
		return a.mtrv < b.mtrv
	}
	if a.free != b.free {
		return a.free > b.free
	}
	return a.vm < b.vm
}

func initEdges(h []hullEdge) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func pushEdge(h []hullEdge, e hullEdge) []hullEdge {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !edgeLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func popEdge(h []hullEdge) (hullEdge, []hullEdge) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	e := h[n]
	h = h[:n]
	siftDown(h, 0)
	return e, h
}

func siftDown(h []hullEdge, i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && edgeLess(h[j2], h[j]) {
			j = j2
		}
		if !edgeLess(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
