package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric declares one reported number. BENCHMARK.json repeats the
// endToEnd and perLayer tables; a test keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline it may worsen by
}

// endToEnd are the metrics every workload reports, which is what lets
// BENCHMARK.json bound them on every workload. They are measured with
// tracing off and the engine running as in production. The bounds are
// the widest the driver's contract allows: it compares medians of runs
// on different seeds, rollover_paper affords only 32 boxes a round, and
// the sandbox's own speed drifts by 10-20 % over minutes; README.md has
// the spreads seen.
var endToEnd = []metric{
	// Median over the run's set-ups of: trace generation, body
	// encoding, service boot, preload and cold-start plans.
	{"setup_s", "s", "lower", 0.25},
	// Accepted VM-samples (one VM's (cpu, ram) for one interval,
	// atmload's unit) per second of measured wall time, the wait for the
	// plans those samples made due included. On the rollovers it moves
	// with plans_per_s; on steady the open loop pins it to the schedule.
	{"ingest_samples_per_s", "1/s", "higher", 0.25},
	// Reaction latency, from a request's due time to its effect being
	// visible. On rollover_* and steady the effect is the plan of a
	// (box, step) the request completed the window of (plan_fresh_*
	// below); on backfill no step is ever due and the effect is the 200
	// response (ingest_* below). Only the median carries a bound: this
	// sandbox stalls even an idle process for 20-100 ms at a time, in
	// bursts that on a bad run reach a tenth of the requests, so p90
	// and p99 (reported below) measure the sandbox, not the program.
	{"react_p50_ms", "ms", "lower", 0.25},
	// Process CPU time (server and load generator: they share the
	// process) per accepted VM-sample. On steady, where throughput is
	// pinned, this is the number a faster layer moves.
	{"cpu_us_per_sample", "us", "lower", 0.25},
	// VmHWM of the workload process.
	{"rss_peak_mb", "MiB", "lower", 0.20},
}

// endToEndExtra are the end-to-end metrics that only some workloads
// define, or that this sandbox cannot hold steady. The driver's
// contract wants every bounded metric on every workload and inside its
// bound across seeds, so BENCHMARK.json cannot list them; every run
// that has them prints and records them, and `-compare` holds two
// records of the same seed to these bounds.
var endToEndExtra = []metric{
	// POST /v1/ingest round trip: from the send in a closed loop, from
	// the due time in an open loop. A tail is the named percentile or,
	// with too few samples for it, the highest percentile with 10
	// samples beyond it.
	{"ingest_p50_ms", "ms", "lower", 0.10},
	{"ingest_p90_ms", "ms", "lower", 0.15},
	{"ingest_p99_ms", "ms", "lower", 0.15},
	// plan events per second of round makespan (T0 to the round's last
	// plan): rollover_*.
	{"plans_per_s", "1/s", "higher", 0.10},
	// For each published (box, step): event time minus the due time of
	// the request carrying the step's last tick (T0 on rollovers):
	// rollover_*, steady.
	{"plan_fresh_p50_ms", "ms", "lower", 0.10},
	{"plan_fresh_p90_ms", "ms", "lower", 0.15},
	{"plan_fresh_p99_ms", "ms", "lower", 0.15},
	// GET /v1/boxes/{id}/plan from its due time: steady.
	{"plan_get_p50_ms", "ms", "lower", 0.10},
	{"plan_get_p99_ms", "ms", "lower", 0.15},
	// Failed operations over operations attempted (requests, and steps
	// the script made due). Its bound is absolute: any failure fails.
	{"failed_share", "ratio", "lower", 0},
	// Sum of TicketsAfter over the window's plan events; exactly
	// repeatable for a seed and a round count, it guards speed bought
	// with worse plans. tickets_before is printed beside it.
	{"tickets_after", "count", "lower", 0.01},
	{"tickets_before", "count", "lower", 0.01},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a timing, 0 for a count or a rate
}

type values map[string]value

func unitOf(name string) string {
	for _, tbl := range [][]metric{endToEnd, endToEndExtra, perLayer, crossRun} {
		for _, m := range tbl {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// set records a metric; the name must be declared in one of the tables.
func (vs values) set(name string, v float64, n int) {
	vs[name] = value{Value: v, Unit: unitOf(name), N: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail returns the target percentile of the sorted samples or, when
// fewer than 10 samples lie beyond it, the highest percentile that has
// 10 beyond it (never below the median), and the percentile it used.
// Percentiles are nearest-rank.
func tail(sorted []time.Duration, target float64) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(target*float64(n)-1e-9)) - 1
	idx = max(min(idx, n-11), (n-1)/2)
	return sorted[idx], float64(idx+1) / float64(n)
}

func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}

// setTimings records name_p50_ms and the name_pNN_ms tails asked for.
func (vs values) setTimings(prefix string, ds []time.Duration, tails ...int) {
	s := sorted(ds)
	if len(s) == 0 {
		return
	}
	vs.set(prefix+"_p50_ms", ms(s[(len(s)-1)/2]), len(s))
	for _, p := range tails {
		d, _ := tail(s, float64(p)/100)
		vs.set(prefix+"_p"+strconv.Itoa(p)+"_ms", ms(d), len(s))
	}
}

// rssPeakMiB reads the process's high-water resident set.
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// endToEndValues derives the end-to-end metrics of a finished run.
func (r *run) endToEndValues() values {
	vs := values{}
	vs.set("setup_s", median(r.setups).Seconds(), len(r.setups))
	vs.set("ingest_samples_per_s", float64(r.tl.samples)/r.wall.Seconds(), 0)
	vs.setTimings("ingest", r.tl.postLat, 90, 99)
	react := r.fresh
	if r.sp.kind == kindBackfill {
		react = r.tl.postLat
	}
	vs.setTimings("react", react)
	vs.set("cpu_us_per_sample", float64(r.cpu.Microseconds())/float64(max(r.tl.samples, 1)), 0)
	vs.set("rss_peak_mb", rssPeakMiB(), 0)

	plans, before, after := r.planTotals()
	if r.sp.kind != kindBackfill {
		vs.set("tickets_before", float64(before), 0)
		vs.set("tickets_after", float64(after), 0)
		vs.setTimings("plan_fresh", r.fresh, 90, 99)
	}
	if r.sp.kind == kindRollover {
		vs.set("plans_per_s", float64(plans)/r.makespan.Seconds(), 0)
	}
	if r.sp.kind == kindSteady {
		vs.setTimings("plan_get", r.tl.planLat, 99)
		// A per-layer metric, but only the paced (untraced) run can
		// measure it: how late the open-loop generator sent.
		d, _ := tail(sorted(r.tl.late), 0.99)
		vs.set("loadgen.late_p99_ms", ms(d), len(r.tl.late))
	}
	vs.set("failed_share", float64(r.failed())/float64(r.attempted()), 0)
	return vs
}

// attempted counts the run's operations: requests sent and steps the
// script made due. failed counts those that failed: non-200 responses,
// per-box errors inside 200 bodies, failure events, and due steps that
// were never closed.
func (r *run) attempted() int { return r.tl.posts + r.tl.gets + r.dueSteps }

func (r *run) failed() int {
	return r.tl.failed() + r.eventFailures() + max(r.dueSteps-r.closedSteps(), 0)
}
