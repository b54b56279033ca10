package main

import (
	"encoding/json"
	"fmt"
	"math"

	"atm/internal/serve"
	"atm/internal/state"
	"atm/internal/trace"
)

// batchBoxes is how many boxes one /v1/ingest body carries — the
// atmload default, and the unit the fleet sizes are multiples of.
const batchBoxes = 16

// scale is the time geometry of a run.
type scale struct {
	spd     int // samples per day
	train   int // core.Config.TrainWindows
	horizon int // core.Config.Horizon
	history int // store retention
}

// paperScale is the paper's (and atmd's default) geometry: 15-minute
// samples, a 5-day training window, a 1-day horizon, and atmd's
// 2*(train+horizon) retention. toyScale shrinks it for the smoke tests.
var (
	paperScale = scale{spd: 96, train: 480, horizon: 96, history: 1152}
	toyScale   = scale{spd: 8, train: 40, horizon: 8, history: 96}
)

// need is engine.Need: the samples a box must hold before step k fires.
func (s scale) need(step int) int { return s.train + (step+1)*s.horizon }

// fleet is the generated input of one run: boxes with their full usage
// series, rounded to the two decimals a monitoring agent reports (body
// bytes drive decode cost).
type fleet struct {
	boxes []trace.Box
	metas []state.BoxMeta
	vms   int // total VM count across the fleet
	// phase shifts box b's ticks in request bodies: a body for ticks
	// [from, to) carries box b's ticks [phase[b]+from, phase[b]+to).
	// The steady workload uses it to stagger when boxes fall due.
	phase []int
}

// vmProfile returns the VM count of every box of an n-box fleet. The
// counts follow the generator's calibrated consolidation distribution
// (round(N(10, 3.5)) clamped to [2, 24]) but are drawn by a
// low-discrepancy sequence instead of the seed: a step costs roughly
// the square of its box's VM count, so letting the seed redraw the
// shape of a 32-box fleet would move the throughput metrics by more
// than any regression bound. The seed still decides everything inside
// a box. The golden-ratio sequence keeps every contiguous run of boxes
// (one request body, one client's half of the fleet) a fair sample of
// the distribution.
func vmProfile(n int) []int {
	const phi = 0.6180339887498949
	out := make([]int, n)
	for i := range out {
		u := math.Mod((float64(i)+0.5)*phi, 1)
		z := math.Sqrt2 * math.Erfinv(2*u-1)
		out[i] = min(max(int(math.Round(10+3.5*z)), 2), 24)
	}
	return out
}

// newFleet generates n boxes of the given length from the seed. Boxes
// of one VM count come from one trace.Generate call pinned to that
// count (MinVMs = MaxVMs), with every other knob at its calibrated
// default; ids are renumbered so the shard layout is the same for
// every seed.
func newFleet(seed int64, n, days, spd int) *fleet {
	profile := vmProfile(n)
	want := map[int]int{}
	for _, c := range profile {
		want[c]++
	}
	groups := map[int][]trace.Box{}
	for c, k := range want {
		groups[c] = trace.Generate(trace.GenConfig{
			Boxes: k, Days: days, SamplesPerDay: spd,
			// Generate seeds box b with Seed + b*1_000_003; offsetting
			// each group by 10_000 box strides keeps the streams of
			// different groups disjoint.
			Seed:    seed + int64(c)*10_000*1_000_003,
			MeanVMs: c, MinVMs: c, MaxVMs: c,
			GapFraction: 1e-9,
		}).Boxes
	}
	f := &fleet{boxes: make([]trace.Box, n), metas: make([]state.BoxMeta, n), phase: make([]int, n)}
	for i, c := range profile {
		b := groups[c][0]
		groups[c] = groups[c][1:]
		b.ID = fmt.Sprintf("box-%04d", i)
		for v := range b.VMs {
			vm := &b.VMs[v]
			vm.ID = fmt.Sprintf("vm-%04d-%02d", i, v)
			round2(vm.CPU)
			round2(vm.RAM)
		}
		f.boxes[i] = b
		f.metas[i] = state.MetaOf(&f.boxes[i])
		f.vms += len(b.VMs)
	}
	return f
}

func round2(s []float64) {
	for i, v := range s {
		s[i] = math.Round(v*100) / 100
	}
}

// ticks returns box b's usage for sampling intervals [from, to) in the
// shape the store and the ingest API take: cpu[k][v], ram[k][v].
func (f *fleet) ticks(b, from, to int) (cpu, ram [][]float64) {
	box := &f.boxes[b]
	cpu = make([][]float64, to-from)
	ram = make([][]float64, to-from)
	for k := range cpu {
		cpu[k] = make([]float64, len(box.VMs))
		ram[k] = make([]float64, len(box.VMs))
		for v := range box.VMs {
			cpu[k][v] = box.VMs[v].CPU[from+k]
			ram[k][v] = box.VMs[v].RAM[from+k]
		}
	}
	return cpu, ram
}

// window returns the pipeline window of (box, step) as the engine
// would read it from the store: usage for ticks [step*horizon,
// need(step)).
func (f *fleet) window(sc scale, b, step int) *trace.Box {
	src := &f.boxes[b]
	from, to := step*sc.horizon, sc.need(step)
	wb := *src
	wb.VMs = make([]trace.VM, len(src.VMs))
	for v := range src.VMs {
		wb.VMs[v] = src.VMs[v]
		wb.VMs[v].CPU = src.VMs[v].CPU[from:to]
		wb.VMs[v].RAM = src.VMs[v].RAM[from:to]
	}
	return &wb
}

// body is one pre-encoded /v1/ingest request.
type body struct {
	data    []byte
	lo, hi  int // boxes [lo, hi) carried
	from    int // first tick carried
	ticks   int // ticks per box
	samples int // VM-samples carried: ticks x VMs over the boxes
}

// encode builds the body carrying ticks [from, to) of boxes [lo, hi).
// withMeta attaches each box's static configuration, which registers
// the box through the API on first contact.
func (f *fleet) encode(lo, hi, from, to int, withMeta bool) body {
	req := serve.BatchRequest{Boxes: make([]serve.BatchEntry, 0, hi-lo)}
	samples := 0
	for b := lo; b < hi; b++ {
		cpu, ram := f.ticks(b, f.phase[b]+from, f.phase[b]+to)
		e := serve.BatchEntry{ID: f.boxes[b].ID, Samples: make([]serve.Tick, len(cpu))}
		for k := range cpu {
			e.Samples[k] = serve.Tick{CPU: cpu[k], RAM: ram[k]}
		}
		if withMeta {
			e.Box = &f.metas[b]
		}
		samples += (to - from) * len(f.boxes[b].VMs)
		req.Boxes = append(req.Boxes, e)
	}
	data, err := json.Marshal(req)
	if err != nil {
		// Only NaN/Inf values fail to marshal, and the generator is run
		// gap-free.
		panic(fmt.Sprintf("benchmark: encode boxes [%d,%d) ticks [%d,%d): %v", lo, hi, from, to, err))
	}
	return body{data: data, lo: lo, hi: hi, from: from, ticks: to - from, samples: samples}
}

// encodeAll builds one body per batchBoxes-box slice of the fleet.
func (f *fleet) encodeAll(from, to int, withMeta bool) []body {
	var out []body
	for lo := 0; lo < len(f.boxes); lo += batchBoxes {
		out = append(out, f.encode(lo, min(lo+batchBoxes, len(f.boxes)), from, to, withMeta))
	}
	return out
}
