package trace

import (
	"fmt"
	"math"
	"math/rand"

	"atm/internal/timeseries"
)

// GenConfig parameterizes the synthetic trace generator. Zero values
// select the calibrated defaults (see withDefaults); the probabilities
// below were tuned so a generated trace reproduces the paper's Figure
// 2/3 characterization statistics.
type GenConfig struct {
	// Boxes is the number of physical machines (paper: 6000; default
	// here 100 to keep experiments fast — scale up via flags).
	Boxes int
	// Days is the trace length (paper: 7).
	Days int
	// SamplesPerDay is the sampling resolution (paper: 96 fifteen-
	// minute windows).
	SamplesPerDay int
	// Seed drives all randomness; traces are fully deterministic in
	// (Seed, other fields).
	Seed int64
	// MeanVMs is the average consolidation level (paper: ~10 VMs per
	// box). MinVMs/MaxVMs clamp the per-box draw.
	MeanVMs int
	MinVMs  int
	MaxVMs  int
	// ChronicCPUProb is the probability that a box hosts a chronically
	// overloaded CPU VM (persistent insufficient provisioning — these
	// generate tickets at every threshold).
	ChronicCPUProb float64
	// DiurnalCPUProb is the probability that a box hosts one or two
	// peak-hours CPU culprits (transient load dynamics — these
	// generate threshold-sensitive tickets).
	DiurnalCPUProb float64
	// ChronicRAMProb and DiurnalRAMProb are the RAM analogues; RAM is
	// over-provisioned in practice, so both are lower.
	ChronicRAMProb float64
	DiurnalRAMProb float64
	// MixerCPUProb is the probability that a box hosts a group of
	// "mixer" VMs whose CPU strongly mixes the box's latent factors —
	// the source of the multicollinearity that the signature search's
	// stepwise step removes.
	MixerCPUProb float64
	// GapFraction is the fraction of boxes whose monitoring has
	// outages (NaN windows), mirroring the paper's non-gap-free boxes.
	GapFraction float64
}

// withDefaults fills zero fields with the calibrated defaults.
func (c GenConfig) withDefaults() GenConfig {
	if c.Boxes == 0 {
		c.Boxes = 100
	}
	if c.Days == 0 {
		c.Days = 7
	}
	if c.SamplesPerDay == 0 {
		c.SamplesPerDay = 96
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanVMs == 0 {
		c.MeanVMs = 10
	}
	if c.MinVMs == 0 {
		c.MinVMs = 2
	}
	if c.MaxVMs == 0 {
		c.MaxVMs = 24
	}
	if c.ChronicCPUProb == 0 {
		c.ChronicCPUProb = 0.25
	}
	if c.DiurnalCPUProb == 0 {
		c.DiurnalCPUProb = 0.40
	}
	if c.ChronicRAMProb == 0 {
		c.ChronicRAMProb = 0.10
	}
	if c.DiurnalRAMProb == 0 {
		c.DiurnalRAMProb = 0.18
	}
	if c.MixerCPUProb == 0 {
		c.MixerCPUProb = 0.55
	}
	if c.GapFraction == 0 {
		c.GapFraction = 0.2
	}
	return c
}

// Generate produces a deterministic synthetic trace. See the package
// comment for the generative model and its calibration targets.
func Generate(cfg GenConfig) *Trace {
	cfg = cfg.withDefaults()
	t := &Trace{SamplesPerDay: cfg.SamplesPerDay, Days: cfg.Days}
	t.Boxes = make([]Box, cfg.Boxes)
	for b := 0; b < cfg.Boxes; b++ {
		// Independent per-box stream so box b is identical regardless
		// of how many boxes are generated.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(b)*1_000_003))
		t.Boxes[b] = genBox(cfg, rng, b)
	}
	return t
}

// vmRole describes the load archetype assigned to a VM for a resource.
type vmRole int

const (
	roleNormal vmRole = iota
	roleDiurnal
	roleChronic
	// roleMixer marks VMs whose CPU is a strong low-noise linear mix
	// of the box's two latent factors. Several mixers span a
	// two-dimensional factor space, so a third mixer's series is a
	// linear combination of the other two — the multicollinearity the
	// paper's VIF/stepwise step exists to remove (Section III-A).
	roleMixer
)

func genBox(cfg GenConfig, rng *rand.Rand, idx int) Box {
	n := cfg.Samples()
	spd := cfg.SamplesPerDay

	// Consolidation level: normal around the mean, clamped.
	m := int(math.Round(rng.NormFloat64()*3.5 + float64(cfg.MeanVMs)))
	if m < cfg.MinVMs {
		m = cfg.MinVMs
	}
	if m > cfg.MaxVMs {
		m = cfg.MaxVMs
	}

	// Shared latent factors.
	phase := rng.Float64() * 2 * math.Pi
	diurnal := make([]float64, n)
	for i := range diurnal {
		diurnal[i] = math.Sin(2*math.Pi*float64(i%spd)/float64(spd) + phase)
	}
	burst := make([]float64, n)
	v := rng.NormFloat64()
	for i := range burst {
		v = 0.92*v + 0.39*rng.NormFloat64() // stationary variance ~1
		burst[i] = v
	}
	// Box-wide spikes: rare load events shared by co-located VMs.
	spike := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.004 {
			mag := 10 + rng.Float64()*20
			dur := 1 + rng.Intn(4)
			for j := i; j < i+dur && j < n; j++ {
				spike[j] = mag
			}
			i += dur
		}
	}

	// Culprit assignment: which VMs are hot, and how.
	cpuRoles := assignRoles(rng, m, cfg.ChronicCPUProb, cfg.DiurnalCPUProb)
	ramRoles := assignRoles(rng, m, cfg.ChronicRAMProb, cfg.DiurnalRAMProb)
	// Mixer assignment (CPU only): factor-driven workloads. Mix
	// directions are evenly spaced (with jitter) over the factor
	// half-plane, so adjacent mixers sit near cos 45° ≈ 0.7 pairwise
	// correlation — below the CBC threshold, hence separate clusters —
	// while any three of them are mutually linearly dependent.
	var mixerAngles []float64
	if rng.Float64() < cfg.MixerCPUProb {
		count := 4 + rng.Intn(2)
		base := rng.Float64() * math.Pi
		step := math.Pi / float64(count)
		if step > math.Pi/4 {
			step = math.Pi / 4
		}
		k := 0
		for _, i := range rng.Perm(m) {
			if k == count {
				break
			}
			if cpuRoles[i] == roleNormal {
				cpuRoles[i] = roleMixer
				jitter := (rng.Float64() - 0.5) * 0.15
				mixerAngles = append(mixerAngles, base+float64(k)*step+jitter)
				k++
			}
		}
	}
	nextMixer := 0

	box := Box{ID: fmt.Sprintf("box-%04d", idx)}
	box.VMs = make([]VM, m)
	var cpuSum, ramSum float64
	for i := 0; i < m; i++ {
		vmCPUCap := 1 + rng.Float64()*5  // GHz
		vmRAMCap := 2 + rng.Float64()*30 // GB
		cpuSum += vmCPUCap
		ramSum += vmRAMCap
		angle := 0.0
		if cpuRoles[i] == roleMixer {
			angle = mixerAngles[nextMixer]
			nextMixer++
		}
		cpu := genCPU(rng, cpuRoles[i], angle, n, spd, diurnal, burst, spike)
		ram := genRAM(rng, ramRoles[i], cpu, diurnal)
		// Daily peak events. Hot (culprit) VMs burst far beyond their
		// allocation (CPU can; the hypervisor lends idle cycles);
		// quiet VMs peak safely below the lowest ticket threshold, so
		// ticket-free boxes stay ticket-free (Figure 2a).
		cpuSoft, ramSoft := 56.0, 56.0
		// Not every hot VM is peaky: roughly a third plateau without
		// bursting past their typical level, which keeps the share of
		// ticketed boxes threshold-sensitive (Figure 2a) and caps how
		// much peak-demand sizing can win (Figure 8).
		if (cpuRoles[i] == roleChronic || cpuRoles[i] == roleDiurnal) && rng.Float64() < 0.7 {
			cpuSoft = 170
		}
		if (ramRoles[i] == roleChronic || ramRoles[i] == roleDiurnal) && rng.Float64() < 0.7 {
			ramSoft = 118
		}
		events := addDailyPeaks(rng, cpu, spd, cpuSoft, 170, nil)
		addDailyPeaks(rng, ram, spd, ramSoft, 120, events)
		box.VMs[i] = VM{
			ID:        fmt.Sprintf("vm-%04d-%02d", idx, i),
			CPUCapGHz: vmCPUCap,
			RAMCapGB:  vmRAMCap,
			CPU:       cpu,
			RAM:       ram,
		}
	}
	// Data centers are lowly utilized: the box retains headroom over
	// the sum of allocations, which is what gives resizing room to
	// shuffle.
	box.CPUCapGHz = cpuSum * (0.85 + rng.Float64()*0.35)
	box.RAMCapGB = ramSum * (0.9 + rng.Float64()*0.45)

	// Monitoring gaps: a contiguous NaN run in every series of the box.
	if rng.Float64() < cfg.GapFraction {
		runs := 1 + rng.Intn(3)
		for r := 0; r < runs; r++ {
			start := rng.Intn(n)
			length := 2 + rng.Intn(18)
			for j := start; j < start+length && j < n; j++ {
				for i := range box.VMs {
					box.VMs[i].CPU[j] = math.NaN()
					box.VMs[i].RAM[j] = math.NaN()
				}
			}
		}
	}
	return box
}

// assignRoles gives each of the m VMs a role for one resource. A
// chronic box hosts exactly one chronic VM; a diurnal box hosts one or
// two diurnal culprits; both can coexist. The remaining VMs are
// normal, concentrating tickets on 1–2 culprits per box (Figure 2c).
func assignRoles(rng *rand.Rand, m int, chronicProb, diurnalProb float64) []vmRole {
	roles := make([]vmRole, m)
	if rng.Float64() < chronicProb {
		roles[rng.Intn(m)] = roleChronic
	}
	if rng.Float64() < diurnalProb {
		count := 1 + rng.Intn(2)
		for k := 0; k < count; k++ {
			i := rng.Intn(m)
			if roles[i] == roleNormal {
				roles[i] = roleDiurnal
			}
		}
	}
	return roles
}

// ownSpikes builds a per-VM spike train: rare short bursts of extra
// load. Spikes give every series a peaky tail (peak well above the
// typical level), which is what lets peak-demand ("stingy") sizing
// reduce tickets at all, and what makes max-min fairness starve big
// VMs when the sum of ticket-free targets exceeds the box capacity.
func ownSpikes(rng *rand.Rand, n int, prob, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < prob {
			// Heavy-tailed magnitudes: most bursts are small, the
			// daily maximum is dominated by one large event. This
			// gives every series a peak well above its typical level
			// and above its other bursts — the shape that makes
			// peak-demand sizing meaningful.
			u := rng.Float64()
			mag := lo + (hi-lo)*u*u*u
			dur := 1 + rng.Intn(3)
			for j := i; j < i+dur && j < n; j++ {
				out[j] = mag
			}
			i += dur
		}
	}
	return out
}

// addDailyPeaks injects one or two short burst events per VM-day whose
// magnitude is ~1.8-2.2x the day's 95th-percentile level (capped).
// Real usage series have exactly this shape — a daily peak well above
// the typical level — and it is the property that makes peak-demand
// ("stingy") sizing meaningful: with the peak that far out, demand
// exceeds 60% of the peak only during the peak events themselves.
func addDailyPeaks(rng *rand.Rand, s timeseries.Series, spd int, softCap, hardCap float64, at []int) []int {
	var windows []int
	var day []float64 // the quantile's scratch, one for all days
	nextAt := 0
	// Peak events recur near the same within-day slot (cron-style
	// batch work), jittered by up to two windows: spiky enough to
	// dominate the daily maximum, regular enough that a seasonal
	// predictor can anticipate them.
	baseSlot := rng.Intn(spd)
	for lo := 0; lo < len(s); lo += spd {
		hi := lo + spd
		if hi > len(s) {
			hi = len(s)
		}
		var q95 float64
		q95, day = timeseries.QuantileInto(day, s[lo:hi], 0.95)
		events := 1 + rng.Intn(2)
		for e := 0; e < events; e++ {
			var w int
			if at != nil {
				if nextAt >= len(at) || at[nextAt] >= hi {
					break
				}
				w = at[nextAt]
				nextAt++
			} else {
				slot := (baseSlot + e*7 + rng.Intn(5) - 2 + spd) % spd
				w = lo + slot
				if w >= hi {
					w = hi - 1
				}
			}
			mag := q95 * (1.8 + 0.4*rng.Float64())
			if mag > softCap {
				mag = softCap * (0.92 + 0.08*rng.Float64())
			}
			if mag > hardCap {
				mag = hardCap
			}
			if mag > s[w] {
				s[w] = mag
				if w+1 < hi && rng.Float64() < 0.5 && mag*0.85 > s[w+1] {
					s[w+1] = mag * 0.85
				}
			}
			windows = append(windows, w)
		}
	}
	return windows
}

// genCPU synthesizes a CPU utilization-percent series for one VM. The
// angle parameter sets a mixer's direction in the factor plane and is
// ignored for other roles.
func genCPU(rng *rand.Rand, role vmRole, angle float64, n, spd int, diurnal, burst, spike []float64) timeseries.Series {
	out := make(timeseries.Series, n)
	switch role {
	case roleChronic:
		// Persistently under-provisioned: high flat level with bursts.
		level := 85 + rng.Float64()*20
		bAmp := 2 + rng.Float64()*3
		sigma := 3 + rng.Float64()*3
		sp := ownSpikes(rng, n, 0.02, 8, 30)
		for i := range out {
			out[i] = clampCPU(level + bAmp*burst[i] + sp[i] + sigma*rng.NormFloat64())
		}
	case roleMixer:
		// Low-noise linear mix of the two shared factors: strongly
		// factor-driven batch/reporting workloads. The mix direction
		// is drawn uniformly over the factor half-plane so two mixers
		// rarely correlate above the CBC threshold (cos 45° ≈ 0.7),
		// yet three or more of them span only a two-dimensional space
		// and stay mutually linearly dependent — the paper's
		// multicollinearity case.
		base := 12 + rng.Float64()*10
		r := 4 + rng.Float64()*2.5
		a := r * math.Cos(angle) / math.Sqrt(0.5) // diurnal has variance 0.5
		b := r * math.Sin(angle)
		sigma := 0.8 + rng.Float64()*1.2
		sp := ownSpikes(rng, n, 0.012, 5, 26-base)
		for i := range out {
			out[i] = clampCPU(base + a*diurnal[i] + b*burst[i] + sp[i] + sigma*rng.NormFloat64())
		}
	case roleDiurnal:
		// Hot plateau during business hours, moderate otherwise.
		base := 18 + rng.Float64()*18
		amp := 8 + rng.Float64()*8
		plateau := 62 + rng.Float64()*22
		peakStart := rng.Intn(spd)
		widthJitter := spd / 6
		if widthJitter < 1 {
			widthJitter = 1 // tiny test resolutions: keep Intn legal
		}
		peakWidth := spd/4 + rng.Intn(widthJitter) // ~6-10 hours at 96/day
		if peakWidth < 1 {
			peakWidth = 1
		}
		bAmp := 2 + rng.Float64()*3
		sigma := 3 + rng.Float64()*3
		sp := ownSpikes(rng, n, 0.02, 8, 30)
		for i := range out {
			slot := i % spd
			inPeak := (slot-peakStart+spd)%spd < peakWidth
			v := base + amp*diurnal[i]
			if inPeak {
				v = plateau
			}
			out[i] = clampCPU(v + bAmp*burst[i] + 0.5*spike[i] + sp[i] + sigma*rng.NormFloat64())
		}
	default:
		// Weak shared components and dominant idiosyncratic noise:
		// most co-located pairs are only mildly correlated (the
		// paper's intra-CPU median correlation is ~0.26).
		base := 5 + rng.Float64()*16
		amp := 1.5 + rng.Float64()*4
		bAmp := 0.6 + rng.Float64()*1.8
		// Noise scales with the level, as in real usage traces; a
		// constant noise floor would put an artificial ~40% APE floor
		// under every idle VM's prediction error.
		sigma := 0.8 + 0.09*base
		sp := ownSpikes(rng, n, 0.015, 6, 28-base)
		for i := range out {
			out[i] = clampCPU(base + amp*diurnal[i] + bAmp*burst[i] + 0.4*spike[i] + sp[i] + sigma*rng.NormFloat64())
		}
	}
	return out
}

// genRAM synthesizes a RAM utilization-percent series. RAM tracks the
// VM's own CPU (producing the paper's strong inter-pair correlation of
// ~0.62) with a smoother response and its own base level; chronic and
// diurnal RAM roles lift the level across ticket thresholds.
func genRAM(rng *rand.Rand, role vmRole, cpu timeseries.Series, diurnal []float64) timeseries.Series {
	n := len(cpu)
	cpuMean := 0.0
	for _, v := range cpu {
		cpuMean += v
	}
	cpuMean /= float64(n)

	var base, couple, sigma, ramAmp float64
	switch role {
	case roleChronic:
		base = 74 + rng.Float64()*16
		couple = 0.2 + rng.Float64()*0.15
		sigma = 1.5 + rng.Float64()*1.5
		ramAmp = rng.Float64() * 2
	case roleDiurnal:
		base = 50 + rng.Float64()*8
		couple = 0.35 + rng.Float64()*0.2
		sigma = 2 + rng.Float64()*1.5
		ramAmp = 6 + rng.Float64()*4 // pronounced own daily swing
	default:
		base = 6 + rng.Float64()*14
		couple = 0.45 + rng.Float64()*0.3
		sigma = 0.6 + 0.07*base
		ramAmp = rng.Float64() * 2
	}

	out := make(timeseries.Series, n)
	// RAM gets its own rare bursts (cache warm-ups, batch jobs) so its
	// peak sits well above the typical level, like the CPU series.
	sp := ownSpikes(rng, n, 0.01, 5, 24-base*0.5)
	// Exponential smoothing of the coupled CPU signal: RAM reacts
	// slower than CPU (allocations persist), but stays strongly
	// correlated with it.
	smooth := cpu[0] - cpuMean
	for i := range out {
		smooth = 0.45*smooth + 0.55*(cpu[i]-cpuMean)
		out[i] = clampRAM(base + couple*smooth + ramAmp*diurnal[i] + sp[i] + sigma*rng.NormFloat64())
	}
	return out
}

// clampCPU bounds CPU utilization. VMware-style scheduling lets a VM
// burst beyond its configured capacity when the host has spare cycles,
// so CPU usage-percent can exceed 100 — without this, the "stingy"
// peak-demand policy could never reduce tickets (its cap would always
// be at most the original allocation), contradicting the paper's
// Figure 8.
func clampCPU(v float64) float64 {
	if v < 0.5 {
		return 0.5
	}
	if v > 170 {
		return 170
	}
	return v
}

// clampRAM bounds RAM utilization. Active-memory metrics measured
// against the configured allocation can exceed 100% under ballooning
// and host swap, so a modest overshoot is allowed — without it,
// peak-demand sizing could never relieve a chronically hot RAM VM.
func clampRAM(v float64) float64 {
	if v < 0.5 {
		return 0.5
	}
	if v > 120 {
		return 120
	}
	return v
}

// Samples returns the series length the config produces.
func (c GenConfig) Samples() int {
	cc := c.withDefaults()
	return cc.Days * cc.SamplesPerDay
}
