// Package trace models data-center resource usage traces and provides
// a seeded synthetic generator standing in for the proprietary IBM
// production trace the paper studies (6K physical boxes, 80K+ VMs, CPU
// and RAM utilization sampled every 15 minutes for 7 days).
//
// The generator is calibrated against the paper's published
// characterization rather than raw data we cannot have:
//
//   - ticket distribution across thresholds 60/70/80% (Figure 2):
//     roughly 57/49/40% of boxes with CPU tickets, 38/20/10% with RAM
//     tickets, ~39/33/29 CPU and ~15/11/9 RAM tickets per box per day,
//     with one to two "culprit" VMs per box contributing 80% of them;
//   - spatial correlation structure (Figure 3): mean pairwise Pearson
//     correlations ≈ 0.26 intra-CPU, 0.24 intra-RAM, 0.30 inter
//     CPU/RAM across VMs, 0.62 between a VM's own CPU and RAM.
//
// Mechanically, each box owns shared latent factors (a diurnal wave, an
// AR(1) burst process and box-wide load spikes) that co-located VMs mix
// with individual weights, which produces the spatial dependency ATM
// exploits; a VM's RAM tracks its own CPU, which produces the strong
// inter-pair correlation.
package trace

import (
	"fmt"
	"math"

	"atm/internal/timeseries"
)

// Resource identifies a virtual resource type.
type Resource int

// The two resources the paper's tickets cover.
const (
	CPU Resource = iota
	RAM
)

// String implements fmt.Stringer.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case RAM:
		return "ram"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// NumResources is the number of resource kinds per VM (N in the
// paper's M×N series notation).
const NumResources = 2

// VM is one virtual machine's configuration and usage trace.
type VM struct {
	// ID is unique within the trace.
	ID string
	// CPUCapGHz is the allocated virtual CPU capacity in GHz.
	CPUCapGHz float64
	// RAMCapGB is the allocated virtual RAM capacity in GB.
	RAMCapGB float64
	// CPU and RAM are utilization series in percent of the allocated
	// capacity (0–100). Gap windows are NaN.
	CPU timeseries.Series
	RAM timeseries.Series
}

// Usage returns the utilization-percent series for the resource.
func (vm *VM) Usage(r Resource) timeseries.Series {
	if r == CPU {
		return vm.CPU
	}
	return vm.RAM
}

// Capacity returns the allocated virtual capacity for the resource
// (GHz for CPU, GB for RAM).
func (vm *VM) Capacity(r Resource) float64 {
	if r == CPU {
		return vm.CPUCapGHz
	}
	return vm.RAMCapGB
}

// Demand returns the demand series for the resource: usage percent
// times allocated capacity (paper footnote 2: "demand series is the
// product of usage series and the allocated virtual capacity").
func (vm *VM) Demand(r Resource) timeseries.Series {
	return vm.Usage(r).Scale(vm.Capacity(r) / 100)
}

// Box is one physical machine hosting co-located VMs.
type Box struct {
	// ID is unique within the trace.
	ID string
	// CPUCapGHz and RAMCapGB are the box's total available virtual
	// capacities (C in the resizing formulation).
	CPUCapGHz float64
	RAMCapGB  float64
	// VMs are the co-located virtual machines.
	VMs []VM
}

// HasGaps reports whether any VM series on the box contains a gap
// (NaN) sample. The paper's evaluation selects the 400 boxes "which
// have no gaps in their traces".
func (b *Box) HasGaps() bool {
	for i := range b.VMs {
		for _, s := range [...]timeseries.Series{b.VMs[i].CPU, b.VMs[i].RAM} {
			for _, v := range s {
				if math.IsNaN(v) {
					return true
				}
			}
		}
	}
	return false
}

// SeriesIndex maps (vm, resource) to the box-wide series index used by
// DemandSeries and the spatial models: CPU and RAM series interleave
// per VM.
func SeriesIndex(vm int, r Resource) int { return vm*NumResources + int(r) }

// SeriesVM returns the VM index owning box-wide series index i.
func SeriesVM(i int) int { return i / NumResources }

// SeriesResource returns the resource kind of box-wide series index i.
func SeriesResource(i int) Resource { return Resource(i % NumResources) }

// DemandSeries returns all M×N demand series of the box in SeriesIndex
// order.
func (b *Box) DemandSeries() []timeseries.Series {
	out := make([]timeseries.Series, len(b.VMs)*NumResources)
	for v := range b.VMs {
		out[SeriesIndex(v, CPU)] = b.VMs[v].Demand(CPU)
		out[SeriesIndex(v, RAM)] = b.VMs[v].Demand(RAM)
	}
	return out
}

// Capacities returns the per-VM allocated capacity of the resource, in
// VM order.
func (b *Box) Capacities(r Resource) []float64 {
	out := make([]float64, len(b.VMs))
	for i := range b.VMs {
		out[i] = b.VMs[i].Capacity(r)
	}
	return out
}

// Demands returns the per-VM demand series of one resource, in VM
// order (the resizing problem's input shape).
func (b *Box) Demands(r Resource) []timeseries.Series {
	out := make([]timeseries.Series, len(b.VMs))
	for i := range b.VMs {
		out[i] = b.VMs[i].Demand(r)
	}
	return out
}

// Trace is a collection of boxes sampled on a common fixed interval.
type Trace struct {
	// Boxes holds every physical machine.
	Boxes []Box
	// SamplesPerDay is the sampling resolution (96 = 15-minute
	// windows).
	SamplesPerDay int
	// Days is the trace length in days.
	Days int
}

// Samples returns the number of samples in each series.
func (t *Trace) Samples() int { return t.SamplesPerDay * t.Days }

// NumVMs returns the total VM count across all boxes.
func (t *Trace) NumVMs() int {
	n := 0
	for i := range t.Boxes {
		n += len(t.Boxes[i].VMs)
	}
	return n
}

// GapFree returns the boxes without trace gaps, mirroring the paper's
// selection of 400 gap-free boxes for the full-ATM evaluation.
func (t *Trace) GapFree() []*Box {
	var out []*Box
	for i := range t.Boxes {
		if !t.Boxes[i].HasGaps() {
			out = append(out, &t.Boxes[i])
		}
	}
	return out
}
