package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchSeries is the matrix-benchmark workload: 48 random-walk series
// of 96 samples (one synthetic day), window 9 (~10% band).
const (
	benchN      = 48
	benchM      = 96
	benchWindow = 9
)

// BenchmarkDTWMatrixParallel times the full pairwise matrix with one
// worker and with the default pool, so `go test -bench` shows the
// parallel speedup directly (expect ~1x on one core, near-linear up to
// the pair count on more).
func BenchmarkDTWMatrixParallel(b *testing.B) {
	series := randomSeriesSet(rand.New(rand.NewSource(7)), benchN, benchM)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DTWMatrix(series, benchWindow, WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDTWMatrixApprox times the LB_Keogh-pruned matrix with the
// automatic median cutoff against the exact build.
func BenchmarkDTWMatrixApprox(b *testing.B) {
	series := randomSeriesSet(rand.New(rand.NewSource(7)), benchN, benchM)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DTWMatrixApprox(series, benchWindow, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeAllocs isolates the pooled-buffer work of the
// approximate matrix: per-series envelopes plus per-pair LB_Keogh
// bounds, the slices that used to be allocated fresh per call. Run
// with -benchmem: allocs/op should stay flat (pool hits), not scale
// with series count.
func BenchmarkEnvelopeAllocs(b *testing.B) {
	series := randomSeriesSet(rand.New(rand.NewSource(7)), benchN, benchM)
	b.Run("matrix-approx", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DTWMatrixApprox(series, benchWindow, 0, WithWorkers(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("envelope", func(b *testing.B) {
		lower := make([]float64, benchM)
		upper := make([]float64, benchM)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			envelope(series[i%benchN], benchWindow, lower, upper)
		}
	})
}

// BenchmarkOptimalCut compares the naive kmax-pass silhouette sweep
// against the incremental merge-replay version on the same dendrogram.
func BenchmarkOptimalCut(b *testing.B) {
	const n = 96
	d := twoBlobs(n, n/2)
	dend := Agglomerative(d)
	for _, impl := range []struct {
		name string
		cut  func(*Dendrogram, *DistMatrix, int, int) ([]int, int, float64)
	}{
		{"naive", OptimalCutNaive},
		{"incremental", OptimalCut},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.cut(dend, d, 2, n/2)
			}
		})
	}
}
