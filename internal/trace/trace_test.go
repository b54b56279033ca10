package trace

import (
	"bytes"
	"math"
	"testing"

	"atm/internal/timeseries"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	return Generate(GenConfig{Boxes: 20, Days: 2, Seed: 7})
}

func TestGenerateGeometry(t *testing.T) {
	tr := Generate(GenConfig{Boxes: 10, Days: 3, SamplesPerDay: 48, Seed: 2})
	if len(tr.Boxes) != 10 {
		t.Fatalf("boxes = %d, want 10", len(tr.Boxes))
	}
	if tr.Samples() != 144 {
		t.Fatalf("samples = %d, want 144", tr.Samples())
	}
	for _, b := range tr.Boxes {
		if len(b.VMs) < 2 || len(b.VMs) > 24 {
			t.Errorf("box %s has %d VMs, want within [2,24]", b.ID, len(b.VMs))
		}
		if b.CPUCapGHz <= 0 || b.RAMCapGB <= 0 {
			t.Errorf("box %s has non-positive capacity", b.ID)
		}
		var cpuSum float64
		for _, vm := range b.VMs {
			if len(vm.CPU) != 144 || len(vm.RAM) != 144 {
				t.Fatalf("vm %s series length %d/%d, want 144", vm.ID, len(vm.CPU), len(vm.RAM))
			}
			if vm.CPUCapGHz <= 0 || vm.RAMCapGB <= 0 {
				t.Errorf("vm %s has non-positive capacity", vm.ID)
			}
			cpuSum += vm.CPUCapGHz
			for i, v := range vm.CPU {
				if !math.IsNaN(v) && (v < 0 || v > 170) {
					t.Fatalf("vm %s cpu[%d] = %v outside [0,170]", vm.ID, i, v)
				}
			}
		}
		// Box capacity stays within sane overcommit bounds.
		if b.CPUCapGHz < 0.8*cpuSum || b.CPUCapGHz > 1.5*cpuSum {
			t.Errorf("box %s capacity %v implausible vs allocation sum %v", b.ID, b.CPUCapGHz, cpuSum)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Boxes: 5, Days: 1, Seed: 3})
	b := Generate(GenConfig{Boxes: 5, Days: 1, Seed: 3})
	for i := range a.Boxes {
		for j := range a.Boxes[i].VMs {
			av, bv := a.Boxes[i].VMs[j], b.Boxes[i].VMs[j]
			for k := range av.CPU {
				sameCPU := av.CPU[k] == bv.CPU[k] || (math.IsNaN(av.CPU[k]) && math.IsNaN(bv.CPU[k]))
				sameRAM := av.RAM[k] == bv.RAM[k] || (math.IsNaN(av.RAM[k]) && math.IsNaN(bv.RAM[k]))
				if !sameCPU || !sameRAM {
					t.Fatalf("trace not deterministic at box %d vm %d sample %d", i, j, k)
				}
			}
		}
	}
	// Different seed: different trace.
	c := Generate(GenConfig{Boxes: 5, Days: 1, Seed: 4})
	if a.Boxes[0].VMs[0].CPU[0] == c.Boxes[0].VMs[0].CPU[0] {
		t.Error("different seeds produced identical first sample (suspicious)")
	}
}

func TestGeneratePrefixStable(t *testing.T) {
	// Box b must be identical regardless of the total box count.
	small := Generate(GenConfig{Boxes: 3, Days: 1, Seed: 5})
	big := Generate(GenConfig{Boxes: 6, Days: 1, Seed: 5})
	for i := range small.Boxes {
		a, b := small.Boxes[i], big.Boxes[i]
		if len(a.VMs) != len(b.VMs) {
			t.Fatalf("box %d VM count differs: %d vs %d", i, len(a.VMs), len(b.VMs))
		}
		for j := range a.VMs {
			for k := range a.VMs[j].CPU {
				av, bv := a.VMs[j].CPU[k], b.VMs[j].CPU[k]
				if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
					t.Fatalf("box %d differs with larger trace", i)
				}
			}
		}
	}
}

func TestSeriesIndexing(t *testing.T) {
	for vm := 0; vm < 5; vm++ {
		for _, r := range [...]Resource{CPU, RAM} {
			i := SeriesIndex(vm, r)
			if SeriesVM(i) != vm || SeriesResource(i) != r {
				t.Errorf("roundtrip failed for vm=%d r=%v: index %d", vm, r, i)
			}
		}
	}
}

func TestDemandSeries(t *testing.T) {
	tr := smallTrace(t)
	b := &tr.Boxes[0]
	ds := b.DemandSeries()
	if len(ds) != len(b.VMs)*NumResources {
		t.Fatalf("len = %d, want %d", len(ds), len(b.VMs)*NumResources)
	}
	// Demand = usage% * capacity / 100.
	vm := &b.VMs[0]
	wantFirst := vm.CPU[0] * vm.CPUCapGHz / 100
	if got := ds[SeriesIndex(0, CPU)][0]; math.Abs(got-wantFirst) > 1e-12 {
		t.Errorf("demand[0] = %v, want %v", got, wantFirst)
	}
}

func TestGapFree(t *testing.T) {
	tr := Generate(GenConfig{Boxes: 60, Days: 2, Seed: 11, GapFraction: 0.5})
	gapFree := tr.GapFree()
	if len(gapFree) == 0 || len(gapFree) == 60 {
		t.Fatalf("gap-free boxes = %d of 60; expected some but not all", len(gapFree))
	}
	for _, b := range gapFree {
		if b.HasGaps() {
			t.Errorf("box %s reported gap-free but has gaps", b.ID)
		}
	}
}

func TestNumVMs(t *testing.T) {
	tr := smallTrace(t)
	n := 0
	for i := range tr.Boxes {
		n += len(tr.Boxes[i].VMs)
	}
	if got := tr.NumVMs(); got != n {
		t.Errorf("NumVMs = %d, want %d", got, n)
	}
	if avg := float64(n) / float64(len(tr.Boxes)); avg < 6 || avg > 14 {
		t.Errorf("average consolidation = %v, want near 10", avg)
	}
}

func TestResourceString(t *testing.T) {
	if CPU.String() != "cpu" || RAM.String() != "ram" {
		t.Error("resource names wrong")
	}
	if Resource(7).String() == "" {
		t.Error("unknown resource empty")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(GenConfig{Boxes: 4, Days: 1, SamplesPerDay: 24, Seed: 9, GapFraction: 0.9})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.SamplesPerDay != 24 || got.Days != 1 {
		t.Fatalf("geometry = %d/%d", got.SamplesPerDay, got.Days)
	}
	if len(got.Boxes) != len(tr.Boxes) {
		t.Fatalf("boxes = %d, want %d", len(got.Boxes), len(tr.Boxes))
	}
	for i := range tr.Boxes {
		a, b := &tr.Boxes[i], &got.Boxes[i]
		if a.ID != b.ID || math.Abs(a.CPUCapGHz-b.CPUCapGHz) > 1e-9 {
			t.Fatalf("box %d metadata mismatch", i)
		}
		for j := range a.VMs {
			av, bv := &a.VMs[j], &b.VMs[j]
			if av.ID != bv.ID || av.CPUCapGHz != bv.CPUCapGHz || av.RAMCapGB != bv.RAMCapGB {
				t.Fatalf("vm %d metadata mismatch", j)
			}
			for k := range av.CPU {
				same := av.CPU[k] == bv.CPU[k] || (math.IsNaN(av.CPU[k]) && math.IsNaN(bv.CPU[k]))
				if !same {
					t.Fatalf("vm %d cpu[%d]: %v vs %v", j, k, av.CPU[k], bv.CPU[k])
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"#wrong,96,7\n",
		"#atm-trace,x,7\n",
		"#atm-trace,96,y\n",
		"#atm-trace,2,1\nbox,1,1,vm,cpu,1,50\n", // short row
		"#atm-trace,2,1\nbox,1,1,vm,disk,1,50,50\n",        // bad resource
		"#atm-trace,2,1\nbox,1,1,vm,cpu,1,50,notanumber\n", // bad sample
		"#atm-trace,2,1\nbox,z,1,vm,cpu,1,50,50\n",         // bad box cap
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d: malformed CSV accepted", i)
		}
	}
}

// TestCalibration checks the generator against the paper's published
// characterization (Figure 2 and Figure 3) with generous bands: the
// point is to preserve the phenomena ATM exploits, not to match the
// proprietary trace sample-for-sample.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration study is slow")
	}
	tr := Generate(GenConfig{Boxes: 300, Days: 1, Seed: 1, GapFraction: 1e-9})

	type agg struct {
		boxesWithTickets float64
		ticketsPerBox    float64
		culprits         float64
	}
	measure := func(r Resource, threshold float64) agg {
		var a agg
		nBoxes := 0
		var culpritBoxes float64
		for i := range tr.Boxes {
			b := &tr.Boxes[i]
			total := 0
			perVM := make([]int, len(b.VMs))
			for j := range b.VMs {
				c := b.VMs[j].Usage(r).CountAbove(threshold * 100)
				perVM[j] = c
				total += c
			}
			nBoxes++
			a.ticketsPerBox += float64(total)
			if total > 0 {
				a.boxesWithTickets++
				// Count culprits: VMs covering 80% of tickets.
				sorted := append([]int(nil), perVM...)
				for x := 0; x < len(sorted); x++ {
					for y := x + 1; y < len(sorted); y++ {
						if sorted[y] > sorted[x] {
							sorted[x], sorted[y] = sorted[y], sorted[x]
						}
					}
				}
				need := 0.8 * float64(total)
				cum := 0.0
				k := 0
				for _, c := range sorted {
					cum += float64(c)
					k++
					if cum >= need {
						break
					}
				}
				culpritBoxes += float64(k)
			}
		}
		a.ticketsPerBox /= float64(nBoxes)
		if a.boxesWithTickets > 0 {
			a.culprits = culpritBoxes / a.boxesWithTickets
		}
		a.boxesWithTickets /= float64(nBoxes)
		return a
	}

	cpu60 := measure(CPU, 0.60)
	cpu80 := measure(CPU, 0.80)
	ram60 := measure(RAM, 0.60)
	ram80 := measure(RAM, 0.80)

	checks := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		// Paper Figure 2a: 57% CPU / 38% RAM boxes at 60%; ~40% / ~10% at 80%.
		{"pct boxes cpu tickets @60", cpu60.boxesWithTickets, 0.40, 0.75},
		{"pct boxes cpu tickets @80", cpu80.boxesWithTickets, 0.20, 0.60},
		{"pct boxes ram tickets @60", ram60.boxesWithTickets, 0.20, 0.55},
		{"pct boxes ram tickets @80", ram80.boxesWithTickets, 0.03, 0.30},
		// Figure 2b: ~39/29 CPU and ~15/9 RAM tickets per box per day.
		{"cpu tickets per box @60", cpu60.ticketsPerBox, 20, 60},
		{"cpu tickets per box @80", cpu80.ticketsPerBox, 10, 45},
		{"ram tickets per box @60", ram60.ticketsPerBox, 6, 28},
		{"ram tickets per box @80", ram80.ticketsPerBox, 2, 18},
		// Figure 2c: one to two culprit VMs per box.
		{"cpu culprits @60", cpu60.culprits, 1, 2.6},
		{"ram culprits @60", ram60.culprits, 1, 2.6},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s = %.3f, want in [%.2f, %.2f]", c.name, c.got, c.lo, c.hi)
		}
	}

	// Figure 3: correlation structure. Mean per-box medians across
	// boxes: intra-CPU 0.26, intra-RAM 0.24, inter-pair 0.62.
	var intraCPU, intraRAM, interPair []float64
	for i := range tr.Boxes {
		b := &tr.Boxes[i]
		var cc, rr, pp []float64
		for x := range b.VMs {
			p, err := timeseries.Pearson(b.VMs[x].CPU, b.VMs[x].RAM)
			if err != nil {
				t.Fatal(err)
			}
			pp = append(pp, p)
			for y := x + 1; y < len(b.VMs); y++ {
				c, err := timeseries.Pearson(b.VMs[x].CPU, b.VMs[y].CPU)
				if err != nil {
					t.Fatal(err)
				}
				cc = append(cc, c)
				r2, err := timeseries.Pearson(b.VMs[x].RAM, b.VMs[y].RAM)
				if err != nil {
					t.Fatal(err)
				}
				rr = append(rr, r2)
			}
		}
		if len(cc) > 0 {
			intraCPU = append(intraCPU, timeseries.Median(cc))
			intraRAM = append(intraRAM, timeseries.Median(rr))
		}
		interPair = append(interPair, timeseries.Median(pp))
	}
	mIntraCPU, _ := timeseries.MeanStd(intraCPU)
	mIntraRAM, _ := timeseries.MeanStd(intraRAM)
	mInterPair, _ := timeseries.MeanStd(interPair)
	if mIntraCPU < 0.10 || mIntraCPU > 0.45 {
		t.Errorf("mean intra-CPU corr = %.3f, want near 0.26", mIntraCPU)
	}
	if mIntraRAM < 0.08 || mIntraRAM > 0.45 {
		t.Errorf("mean intra-RAM corr = %.3f, want near 0.24", mIntraRAM)
	}
	if mInterPair < 0.40 || mInterPair > 0.85 {
		t.Errorf("mean inter-pair corr = %.3f, want near 0.62", mInterPair)
	}
}
