package atm

// Benchmark harness: one benchmark per paper figure (regenerating the
// figure's numbers end to end at a reduced scale) plus ablation
// benchmarks for the design choices DESIGN.md calls out and
// micro-benchmarks for the hot algorithms. Run:
//
//	go test -bench=. -benchmem
//
// Per-figure benchmarks exist so a regression in any algorithm's
// complexity shows up as a wall-clock change on the exact workload the
// evaluation uses.

import (
	"math/rand"
	"testing"

	"atm/internal/cluster"
	"atm/internal/experiments"
	"atm/internal/predict"
	"atm/internal/resize"
	"atm/internal/spatial"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// benchOpts is the reduced per-iteration scale for figure benchmarks.
var benchOpts = experiments.Options{Boxes: 12, Seed: 2, Days: 6, SamplesPerDay: 48}

func BenchmarkFig1Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TwoStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7InterIntra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Resizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9FullPrediction(b *testing.B) {
	opts := experiments.Options{Boxes: 4, Seed: 2, Days: 6, SamplesPerDay: 32}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10FullATM(b *testing.B) {
	opts := experiments.Options{Boxes: 4, Seed: 2, Days: 6, SamplesPerDay: 32}
	fig9, err := experiments.Fig9(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(opts, fig9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Performance(b *testing.B) {
	fig12, err := experiments.Fig12(experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(experiments.Options{}, fig12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------

// benchBoxSeries builds one box's demand series for ablations.
func benchBoxSeries(b *testing.B) []timeseries.Series {
	b.Helper()
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 1, Seed: 4, GapFraction: 1e-9})
	return tr.Boxes[0].DemandSeries()
}

// BenchmarkAblationCBCThreshold sweeps the CBC correlation threshold
// (paper default 0.7); lower thresholds merge more and shrink the
// signature set at the cost of fit accuracy.
func BenchmarkAblationCBCThreshold(b *testing.B) {
	series := benchBoxSeries(b)
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		b.Run(float2name(rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spatial.Search(series, spatial.Config{
					Method: spatial.MethodCBC, RhoTh: rho,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVIFCutoff sweeps the stepwise-regression VIF cutoff
// (paper rule of practice: 4).
func BenchmarkAblationVIFCutoff(b *testing.B) {
	series := benchBoxSeries(b)
	for _, cutoff := range []float64{2, 4, 10} {
		b.Run(float2name(cutoff), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spatial.Search(series, spatial.Config{
					Method: spatial.MethodCBC, VIFCutoff: cutoff,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDTWWindow compares unconstrained DTW with
// Sakoe-Chiba bands: the band cuts cost quadratically.
func BenchmarkAblationDTWWindow(b *testing.B) {
	series := benchBoxSeries(b)
	for _, w := range []int{-1, 8, 4} {
		b.Run(int2name(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.DTWMatrix(series, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps the resizing discretization factor:
// larger ε means fewer MCKP candidates and faster solves.
func BenchmarkAblationEpsilon(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 1, Seed: 6, GapFraction: 1e-9})
	box := &tr.Boxes[0]
	for _, eps := range []float64{0, 0.1, 0.5} {
		b.Run(float2name(eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob := &resize.Problem{
					VMs:       demandVMs(box),
					Capacity:  box.CPUCapGHz,
					Threshold: 0.6,
					Epsilon:   eps,
				}
				if _, err := prob.Greedy(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGreedyVsExact measures the cost gap between the
// greedy MCKP heuristic and the exact solver on a small instance.
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	vms := make([]resize.VM, 4)
	var peak float64
	for i := range vms {
		d := make(timeseries.Series, 8)
		for t := range d {
			d[t] = 10 + rng.Float64()*50
		}
		vms[i] = resize.VM{Demand: d}
		peak += d.Max()
	}
	prob := &resize.Problem{VMs: vms, Capacity: peak * 1.2, Threshold: 0.6}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Greedy(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prob.Exact(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTemporalModels compares the pluggable temporal
// models on the same signature series: the cost asymmetry between the
// MLP and the cheap models is the paper's motivation for signature
// reduction.
func BenchmarkAblationTemporalModels(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 6, Seed: 9, GapFraction: 1e-9})
	hist := tr.Boxes[0].VMs[0].Demand(trace.CPU).Slice(0, 5*96)
	spd := 96
	models := map[string]func() predict.Model{
		"seasonal-naive": func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
		"seasonal-mean":  func() predict.Model { return &predict.SeasonalMean{Period: spd} },
		"ar":             func() predict.Model { return &predict.AR{P: 4, Period: spd} },
		"mlp":            func() predict.Model { return predict.DefaultMLP(spd) },
	}
	for name, factory := range models {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := factory()
				if err := m.Fit(hist); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Forecast(spd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks ------------------------------------------------

func BenchmarkPearson(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := make(timeseries.Series, 672)
	q := make(timeseries.Series, 672)
	for i := range p {
		p[i] = rng.Float64()
		q[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.Pearson(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.GenConfig{Boxes: 10, Days: 1, Seed: int64(i + 1)})
	}
}

func demandVMs(box *trace.Box) []resize.VM {
	demands := box.Demands(trace.CPU)
	vms := make([]resize.VM, len(demands))
	for i, d := range demands {
		vms[i] = resize.VM{Demand: d}
	}
	return vms
}

func float2name(v float64) string {
	switch {
	case v == float64(int(v)):
		return itoa(int(v))
	default:
		s := itoa(int(v*10 + 0.5))
		return "0p" + s
	}
}

func int2name(v int) string {
	if v < 0 {
		return "unbounded"
	}
	return itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationClusteringMethods compares all three step-1
// techniques on one box (the Methods experiment's core loop).
func BenchmarkAblationClusteringMethods(b *testing.B) {
	series := benchBoxSeries(b)
	for _, m := range []spatial.Method{spatial.MethodDTW, spatial.MethodCBC, spatial.MethodFeatures} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spatial.Search(series, spatial.Config{Method: m, Period: 96}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRollingOnline measures one box managed online over a
// multi-day trace (the future-work extension).
func BenchmarkRollingOnline(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{Boxes: 1, Days: 5, SamplesPerDay: 32, Seed: 15, GapFraction: 1e-9})
	sys := New(32, WithSeasonalNaive(), WithTrainDays(2), WithHorizonDays(1))
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunRollingBox(&tr.Boxes[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures the per-series descriptor cost.
func BenchmarkFeatureExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	s := make(timeseries.Series, 672)
	for i := range s {
		s[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster.ExtractFeatures(s, 96)
	}
}
