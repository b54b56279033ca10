package cluster

import (
	"fmt"
	"math"
	"sort"

	"atm/internal/obs"
	"atm/internal/parallel"
)

// Model-selection metrics: candidate cluster counts whose mean
// silhouette was evaluated, and completed cut selections. Their ratio
// is the average sweep width, a direct read on how much model-selection
// work each signature search performs.
var (
	cutEvals = obs.Default().Counter("atm_silhouette_cut_evals_total",
		"Candidate cluster counts evaluated during silhouette model selection.")
	cutsChosen = obs.Default().Counter("atm_silhouette_cuts_total",
		"Completed silhouette-driven cut selections (OptimalCut calls).")
)

// merge records one agglomeration step: clusters a and b (identified by
// their current representative ids) fused at the given height.
type merge struct {
	a, b   int
	height float64
}

// Dendrogram is the merge history of an agglomerative clustering run.
// Cut(k) replays the history to obtain a flat assignment into k
// clusters.
type Dendrogram struct {
	n      int
	merges []merge
}

// Agglomerative performs average-linkage hierarchical clustering over
// the dissimilarity matrix (UPGMA). It is O(n^3), which is ample for
// per-box series counts (tens of series).
func Agglomerative(d *DistMatrix) *Dendrogram {
	n := d.Len()
	dend := &Dendrogram{n: n}
	if n <= 1 {
		return dend
	}
	// active[i] reports whether cluster id i still exists; size[i] its
	// cardinality. Cluster ids are the smallest member index.
	active := make([]bool, n)
	size := make([]int, n)
	// dist holds current inter-cluster average-linkage distances.
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			dist[i][j] = d.At(i, j)
		}
	}
	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dist[i][j] < best {
					best, bi, bj = dist[i][j], i, j
				}
			}
		}
		// Merge bj into bi (Lance-Williams update for average linkage).
		dend.merges = append(dend.merges, merge{a: bi, b: bj, height: best})
		si, sj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			nd := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
			dist[bi][k] = nd
			dist[k][bi] = nd
		}
		size[bi] += size[bj]
		active[bj] = false
	}
	return dend
}

// Cut returns a flat assignment of the n items into k clusters by
// replaying merges until exactly k clusters remain. Labels are
// 0..k-1 in order of each cluster's smallest member index. k is
// clamped into [1, n].
func (dg *Dendrogram) Cut(k int) []int {
	n := dg.n
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for step := 0; step < n-k; step++ {
		m := dg.merges[step]
		ra, rb := find(m.a), find(m.b)
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	// Relabel roots to 0..k-1 ordered by smallest member.
	label := map[int]int{}
	assign := make([]int, n)
	next := 0
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := label[r]
		if !ok {
			l = next
			label[r] = l
			next++
		}
		assign[i] = l
	}
	return assign
}

// silhouetteParallelThreshold is the item count past which the
// per-item silhouette loop fans out onto the worker pool; below it the
// goroutine overhead dwarfs the O(n) per-item work (per-box series
// counts are tens, fleet-level matrices are thousands).
const silhouetteParallelThreshold = 256

// Silhouette returns the per-item silhouette values for a flat
// assignment (paper Eq. 3): s(i) = (b(i)-a(i)) / max(a(i), b(i)), where
// a(i) is the mean dissimilarity of i to its own cluster and b(i) the
// lowest mean dissimilarity to another cluster. Items in singleton
// clusters get 0, the standard convention. If there is a single
// cluster, every value is 0.
//
// The per-item-to-cluster distance sums are computed once per
// assignment, and the per-item loop runs on the worker pool for large
// n; each item writes only its own output slot, so the result is
// bit-identical to the sequential evaluation.
func Silhouette(d *DistMatrix, assign []int) ([]float64, error) {
	n := d.Len()
	if len(assign) != n {
		return nil, fmt.Errorf("cluster: assignment size %d for %d items", len(assign), n)
	}
	k := 0
	for _, c := range assign {
		if c < 0 {
			return nil, fmt.Errorf("cluster: negative label %d", c)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	out := make([]float64, n)
	if k <= 1 {
		return out, nil
	}
	// S[i*k+c] = sum of d(i, j) over items j in cluster c — one pass
	// over the matrix, reused for a(i) and every b-candidate.
	S := make([]float64, n*k)
	workers := 1
	if n >= silhouetteParallelThreshold {
		workers = 0 // pool default: one per core
	}
	_ = parallel.ForEach(n, func(i int) error {
		sums := S[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			if j != i {
				sums[assign[j]] += d.At(i, j)
			}
		}
		own := assign[i]
		if counts[own] <= 1 {
			return nil
		}
		a := sums[own] / float64(counts[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if denom := math.Max(a, b); denom != 0 {
			out[i] = (b - a) / denom
		}
		return nil
	}, parallel.WithWorkers(workers))
	return out, nil
}

// MeanSilhouette returns the average silhouette value of the
// assignment.
func MeanSilhouette(d *DistMatrix, assign []int) (float64, error) {
	s, err := Silhouette(d, assign)
	if err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return 0, nil
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)), nil
}

// clampCutRange normalizes a [kmin, kmax] silhouette-sweep range for n
// items, mirroring the documented OptimalCut clamping.
func clampCutRange(n, kmin, kmax int) (int, int) {
	if kmin < 1 {
		kmin = 1
	}
	if kmax > n {
		kmax = n
	}
	if kmax < kmin {
		kmax = kmin
	}
	return kmin, kmax
}

// OptimalCut evaluates cuts for k in [kmin, kmax] and returns the
// assignment with the maximal mean silhouette, following the paper:
// candidate cluster counts range from 2 to (M*N)/2 so the signature set
// shrinks to at most half the series. Ties favor the smaller k (fewer
// signatures means fewer expensive temporal models). If kmax < kmin
// the single cut at kmin clamped to n is returned.
//
// Model selection is one incremental pass over the merge history, not
// kmax independent silhouette passes: the per-item-to-cluster distance
// sums S[i][c] are built once for the all-singletons state and updated
// on each merge by S[i][a] += S[i][b] (O(n) per merge), so evaluating
// the mean silhouette at every candidate k costs O(n·k) instead of
// O(n²). The tests keep the per-k reference (OptimalCutNaive); the two
// agree up to floating-point summation order.
func OptimalCut(dg *Dendrogram, d *DistMatrix, kmin, kmax int) (assign []int, k int, score float64) {
	n := d.Len()
	if n == 0 {
		return nil, 0, 0
	}
	kmin, kmax = clampCutRange(n, kmin, kmax)

	// Incremental state: cl[i] is the representative id of item i's
	// current cluster, counts[c] its cardinality, S[i*n+c] the distance
	// sum from i to cluster c's members. Representative ids follow the
	// dendrogram's convention (the smaller id survives a merge), which
	// matches the union order Cut replays.
	S := make([]float64, n*n)
	cl := make([]int, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		cl[i] = i
		counts[i] = 1
		copy(S[i*n:(i+1)*n], d.data[i*n:(i+1)*n])
	}
	actives := make([]int, n)
	for i := range actives {
		actives[i] = i
	}

	// meanSil evaluates the current state's mean silhouette in O(n·k).
	meanSil := func(k int) float64 {
		if k <= 1 {
			return 0
		}
		var total float64
		for i := 0; i < n; i++ {
			own := cl[i]
			if counts[own] <= 1 {
				continue // singleton convention: contributes 0
			}
			a := S[i*n+own] / float64(counts[own]-1)
			b := math.Inf(1)
			for _, c := range actives {
				if c == own {
					continue
				}
				if m := S[i*n+c] / float64(counts[c]); m < b {
					b = m
				}
			}
			if denom := math.Max(a, b); denom != 0 {
				total += (b - a) / denom
			}
		}
		return total / float64(n)
	}

	bestK, bestScore := kmin, math.Inf(-1)
	evals := 0
	// The replay walks k downward from n; >= on the comparison keeps
	// the smallest k among ties, matching the ascending naive sweep.
	if n >= kmin && n <= kmax {
		bestK, bestScore = n, meanSil(n)
		evals++
	}
	for step := 0; step < n-1; step++ {
		m := dg.merges[step]
		a, b := m.a, m.b // a < b: Agglomerative keeps the smaller id
		for i := 0; i < n; i++ {
			S[i*n+a] += S[i*n+b]
			if cl[i] == b {
				cl[i] = a
			}
		}
		counts[a] += counts[b]
		counts[b] = 0
		for x, c := range actives {
			if c == b {
				actives = append(actives[:x], actives[x+1:]...)
				break
			}
		}
		k := n - step - 1
		if k < kmin {
			break // merges only coarsen further; nothing left in range
		}
		if k <= kmax {
			evals++
			if s := meanSil(k); s >= bestScore {
				bestScore, bestK = s, k
			}
		}
	}
	if math.IsInf(bestScore, -1) {
		bestK, bestScore = kmin, 0
	}
	cutEvals.Add(float64(evals))
	cutsChosen.Inc()
	return dg.Cut(bestK), bestK, bestScore
}

// Medoids returns, for each cluster label in the assignment, the index
// of the member with the lowest average dissimilarity to its cluster
// mates — the paper's choice of per-cluster signature series. The
// result is sorted by cluster label.
func Medoids(d *DistMatrix, assign []int) []int {
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	medoid := make([]int, k)
	bestAvg := make([]float64, k)
	for c := range medoid {
		medoid[c] = -1
		bestAvg[c] = math.Inf(1)
	}
	for i, c := range assign {
		var sum float64
		cnt := 0
		for j, cj := range assign {
			if cj == c && j != i {
				sum += d.At(i, j)
				cnt++
			}
		}
		avg := 0.0
		if cnt > 0 {
			avg = sum / float64(cnt)
		}
		if avg < bestAvg[c] || (avg == bestAvg[c] && (medoid[c] == -1 || i < medoid[c])) {
			bestAvg[c] = avg
			medoid[c] = i
		}
	}
	sort.Ints(medoid)
	return medoid
}
