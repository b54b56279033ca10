package cluster

import "math"

// OptimalCutNaive is the reference model selection: an independent
// Cut + MeanSilhouette pass per candidate k, O(kmax·n²) total. It
// exists to validate and benchmark the incremental OptimalCut against;
// both return the same k and (up to floating-point association) the
// same score.
func OptimalCutNaive(dg *Dendrogram, d *DistMatrix, kmin, kmax int) (assign []int, k int, score float64) {
	n := d.Len()
	if n == 0 {
		return nil, 0, 0
	}
	kmin, kmax = clampCutRange(n, kmin, kmax)
	bestK, bestScore := kmin, math.Inf(-1)
	var bestAssign []int
	for k := kmin; k <= kmax; k++ {
		a := dg.Cut(k)
		s, err := MeanSilhouette(d, a)
		if err != nil {
			continue
		}
		if s > bestScore {
			bestScore, bestK, bestAssign = s, k, a
		}
	}
	if bestAssign == nil {
		bestAssign = dg.Cut(kmin)
		bestK = kmin
		bestScore = 0
	}
	return bestAssign, bestK, bestScore
}
