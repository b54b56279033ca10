package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"atm/internal/obs"
)

type kind int

const (
	kindBackfill kind = iota
	kindRollover
	kindSteady
)

// spec sizes one workload. The sizes are part of the benchmark: they
// were calibrated once on the 2-core sandbox (see README.md) so that a
// run with its set-up fits the driver's budget, and they are the same
// on every commit.
type spec struct {
	name      string
	why       string
	kind      kind
	sc        scale
	model     model
	mlpEpochs int // 0 keeps the paper's default MLP
	boxes     int
	// rounds is the fixed script `-seconds 0` runs: backfill cycles,
	// rollover rounds, or steady virtual ticks. maxRounds bounds a
	// time-bound run (the generated trace has to cover it).
	rounds, maxRounds int
	// chunk is the ticks per box in one closed-loop body: 24 on
	// backfill (a quarter day per request), 5 between rollovers.
	chunk int
	// tick is steady's virtual sampling interval: every box reports one
	// tick per interval.
	tick time.Duration
}

var specs = []spec{
	{
		name: "backfill", kind: kindBackfill, sc: paperScale, model: modelPaper,
		why:   "closed loop, 2 clients: cold-start ingest of 640 boxes to the 480-tick training window, zero steps fire, so HTTP+JSON decode+store append+engine wake-ups own the time",
		boxes: 640, rounds: 3, maxRounds: 1 << 20, chunk: 24,
	},
	{
		name: "rollover_paper", kind: kindRollover, sc: paperScale, model: modelPaper,
		why:   "open-loop day-boundary burst on 32 boxes at the paper's settings (exact DTW + VIF, 60-epoch MLP): the only record of the specified model on the serving path",
		boxes: 32, rounds: 2, maxRounds: 4, chunk: 5,
	},
	{
		name: "rollover_lean", kind: kindRollover, sc: paperScale, model: modelLean,
		why:   "same burst on 256 boxes with the tuned search and a seasonal-naive forecaster: predict drops to ~0, so search, resize, control, score and actuation show; a forecaster change must not move it",
		boxes: 256, rounds: 3, maxRounds: 10, chunk: 5,
	},
	{
		name: "steady", kind: kindSteady, sc: paperScale, model: modelReuse,
		why:   "open loop, 1 sender + 1 reader: 192 staggered boxes, one tick per box every 125 ms, plan and what-if reads beside the writes, refit instead of search: per-request cost, not per-byte",
		boxes: 192, rounds: 80, maxRounds: 96, tick: 125 * time.Millisecond,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// options are the per-run inputs.
type options struct {
	seed    int64
	seconds float64 // > 0: measure for about this long; else run the fixed script
	rounds  int     // > 0: overrides the fixed script's length
	traced  bool
}

// setupReps is how many times an untraced run sets up; it reports the
// median, which is what keeps setup_s steady enough to carry a bound.
const setupReps = 3

// stepTimeout bounds the wait for due plans; the slowest round
// (rollover_paper) takes about 6 s.
const stepTimeout = 120 * time.Second

// run is one execution of one workload.
type run struct {
	sp  spec
	opt options
	rec *recorder // nil when untraced

	f        *fleet
	st       *stack
	gap      [][][]body // rollover: [round][chunk][body]
	burst    [][]body   // rollover: [round][body]; steady: [tick][body]
	backfill [][]body   // backfill: [chunk][body]

	setups []time.Duration
	begun  time.Time // start of the measured window
	rounds int       // rounds (cycles, ticks) completed

	tl         tally
	wall, cpu  time.Duration // summed over measured phases
	makespan   time.Duration // rollover: sum of T0 -> last plan
	fresh      []time.Duration
	events     []obs.Event // every event of the measured window
	finals     []planRec   // plans read back at quiescent points
	dueSteps   int         // steps the script made due in the window
	backlogEnd int         // due but unpublished when the last response returned
	problems   []string    // correctness-gate findings
	before     counters    // obs.Default() at the start of the window
	after      counters    // ... and at its end, before the probes
}

func (r *run) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// more reports whether to start another round after done of them. A
// time-bound run picks the round count that lands closest to the
// requested seconds, and always runs at least one.
func (r *run) more(done int) bool {
	switch {
	case done >= r.sp.maxRounds:
		return false
	case r.opt.rounds > 0:
		return done < r.opt.rounds
	case r.opt.seconds <= 0:
		return done < r.sp.rounds
	case done == 0:
		return true
	}
	elapsed := time.Since(r.begun)
	return (elapsed + elapsed/time.Duration(2*done)).Seconds() < r.opt.seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed adds f's wall and process CPU time to the measured totals.
func (r *run) timed(f func()) {
	t0, c0 := time.Now(), cpuTime()
	f()
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - c0
}

// phase runs the lists through the stack: concurrently when untraced,
// replayed from one goroutine when traced.
func (r *run) phase(ctx context.Context, lists [][]op) time.Time {
	var start time.Time
	if r.rec != nil {
		start = runPhaseTraced(ctx, r.st, r.st.clients[0], lists)
	} else {
		start = runPhase(ctx, r.st.clients, lists)
	}
	r.tl.add(lists)
	return start
}

// execute sets the workload up, measures it, and checks its outputs.
func (r *run) execute(ctx context.Context) error {
	reps := setupReps
	if r.opt.traced {
		reps = 1 // setup_s is an untraced metric
		r.rec = newRecorder()
	}
	for i := 0; i < reps; i++ {
		if r.st != nil {
			r.st.close()
		}
		t0 := time.Now()
		if err := r.setup(ctx); err != nil {
			return fmt.Errorf("%s: set-up: %w", r.sp.name, err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	defer func() { r.st.close() }()

	// Start the window from a collected heap: whether one of set-up's
	// collections (hundreds of MB live on the larger fleets) happens to
	// land inside a 10-second window otherwise moves CPU time by 10 %.
	runtime.GC()
	r.before = readCounters()
	r.rec.arm(true)
	r.begun = time.Now()
	var err error
	switch r.sp.kind {
	case kindBackfill:
		err = r.measureBackfill(ctx)
	case kindRollover:
		err = r.measureRollover(ctx)
	case kindSteady:
		err = r.measureSteady(ctx)
	}
	r.rec.arm(false)
	r.after = readCounters()
	if err != nil {
		return fmt.Errorf("%s: %w", r.sp.name, err)
	}
	r.checkEvents()
	return nil
}

// setup generates the inputs from the seed, encodes every request body
// the script can send, boots the service and brings it to the state
// the first measured request expects.
func (r *run) setup(ctx context.Context) error {
	sp, sc := r.sp, r.sp.sc
	switch sp.kind {
	case kindBackfill:
		r.f = newFleet(r.opt.seed, sp.boxes, (sc.train+sc.spd-1)/sc.spd, sc.spd)
		r.backfill = nil
		for from := 0; from < sc.train; from += sp.chunk {
			r.backfill = append(r.backfill, r.f.encodeAll(from, min(from+sp.chunk, sc.train), from == 0))
		}
		return r.boot(0)

	case kindRollover:
		last := sc.need(sp.maxRounds - 1)
		r.f = newFleet(r.opt.seed, sp.boxes, (last+sc.spd-1)/sc.spd, sc.spd)
		r.gap, r.burst = nil, nil
		for k := 0; k < sp.maxRounds; k++ {
			from, due := sc.train+k*sc.horizon, sc.need(k)-1
			var chunks [][]body
			for ; from < due; from += sp.chunk {
				chunks = append(chunks, r.f.encodeAll(from, min(from+sp.chunk, due), false))
			}
			r.gap = append(r.gap, chunks)
			r.burst = append(r.burst, r.f.encodeAll(due, due+1, false))
		}
		if err := r.boot(sp.boxes * sp.maxRounds); err != nil {
			return err
		}
		return r.st.preload(r.f, func(int) int { return sc.train })

	default: // kindSteady
		// Box b starts b mod horizon ticks into its second window, so
		// about boxes/horizon boxes fall due on every virtual tick.
		first := sc.need(0)
		r.f = newFleet(r.opt.seed, sp.boxes, (first+sc.horizon+sp.maxRounds+sc.spd-1)/sc.spd, sc.spd)
		for b := range r.f.phase {
			r.f.phase[b] = b % sc.horizon
		}
		r.burst = nil
		for t := 0; t < sp.maxRounds; t++ {
			r.burst = append(r.burst, r.f.encodeAll(first+t, first+t+1, false))
		}
		if err := r.boot(sp.boxes * 3); err != nil {
			return err
		}
		if err := r.st.preload(r.f, func(b int) int { return first + r.f.phase[b] }); err != nil {
			return err
		}
		// Every box publishes its cold-start plan before the window
		// opens, so the window sees the rolling regime only.
		if r.rec != nil {
			r.st.svc.Engine().Sync(ctx)
		}
		if err := r.st.waitSteps(sp.boxes, stepTimeout); err != nil {
			return fmt.Errorf("cold-start plans: %w", err)
		}
		r.st.takeEvents()
		return nil
	}
}

// boot gives the run a fresh stack. Whatever the previous one held is
// garbage by now; collecting it here, outside any timed phase, keeps it
// from inflating the heap the window runs in.
func (r *run) boot(eventCap int) error {
	runtime.GC()
	st, err := newStack(r.sp, eventCap+64, r.rec)
	if err != nil {
		return err
	}
	r.st = st
	return nil
}

// halves gives each of two clients its half of the fleet: client c
// sends its bodies of chunk 0, then of chunk 1, and so on, each as soon
// as the previous response is in.
func halves(chunks [][]body) [][]op {
	lists := make([][]op, 2)
	for c := range lists {
		for k := range chunks {
			nb := len(chunks[k])
			for j := c * nb / 2; j < (c+1)*nb/2; j++ {
				lists[c] = append(lists[c], op{kind: opPost, body: &chunks[k][j], due: closedLoop})
			}
		}
	}
	return lists
}

// measureBackfill repeats the cold start on a fresh service per cycle.
func (r *run) measureBackfill(ctx context.Context) error {
	for ; r.more(r.rounds); r.rounds++ {
		if r.rounds > 0 {
			r.st.close()
			if err := r.boot(0); err != nil {
				return err
			}
		}
		lists := halves(r.backfill)
		r.timed(func() { r.phase(ctx, lists) })
		r.checkTotals(func(int) int { return r.sp.sc.train })
		if n := r.st.events.Total(); n != 0 {
			r.problemf("backfill published %d events, want 0", n)
		}
		for b := range r.f.boxes {
			if _, ok := r.st.svc.Engine().Plan(r.f.boxes[b].ID); ok {
				r.problemf("backfill planned %s", r.f.boxes[b].ID)
			}
		}
	}
	return nil
}

// measureRollover alternates the 95 ticks between two day boundaries
// (closed loop) with the boundary itself: every box's completing tick
// due at one instant T0, two senders posting as fast as they can, the
// round over when every box has published.
func (r *run) measureRollover(ctx context.Context) error {
	prev := r.st.reg.Snapshot()
	for ; r.more(r.rounds); r.rounds++ {
		k := r.rounds
		lists := halves(r.gap[k])
		r.timed(func() { r.phase(ctx, lists) })

		lists = make([][]op, 2)
		for j := range r.burst[k] {
			lists[j%2] = append(lists[j%2], op{kind: opPost, body: &r.burst[k][j], due: 0})
		}
		var (
			t0  time.Time
			err error
		)
		r.timed(func() {
			t0 = r.phase(ctx, lists)
			err = r.st.waitSteps(r.sp.boxes*(k+1), stepTimeout)
		})
		if err != nil {
			return err
		}
		r.dueSteps += r.sp.boxes
		evs := r.st.takeEvents()
		var last time.Time
		for i := range evs {
			if evs[i].Type == "plan" {
				r.fresh = append(r.fresh, evs[i].Time.Sub(t0))
			}
			if evs[i].Time.After(last) {
				last = evs[i].Time
			}
		}
		r.makespan += last.Sub(t0)
		r.events = append(r.events, evs...)
		r.checkTotals(func(int) int { return r.sp.sc.need(k) })
		r.checkPlans(prev, evs)
		prev = r.st.reg.Snapshot()
	}
	return nil
}

// measureSteady streams one tick per box per virtual interval from one
// sender on an even schedule, while one reader polls plans and what-if
// plans on its own.
func (r *run) measureSteady(ctx context.Context) error {
	sp, sc := r.sp, r.sp.sc
	ticks := sp.rounds
	switch {
	case r.opt.rounds > 0:
		ticks = r.opt.rounds
	case r.opt.seconds > 0:
		ticks = max(int(r.opt.seconds/sp.tick.Seconds()), 1)
	}
	ticks = min(ticks, sp.maxRounds)
	nb := len(r.burst[0])
	send := make([]op, 0, ticks*nb)
	for t := 0; t < ticks; t++ {
		for j := 0; j < nb; j++ {
			due := time.Duration(t)*sp.tick + time.Duration(j)*sp.tick/time.Duration(nb)
			send = append(send, op{kind: opPost, body: &r.burst[t][j], due: due})
		}
	}
	// 100 plan reads and 10 what-if reads per second, each on its own
	// even schedule, walking the fleet with a stride coprime to it.
	window := time.Duration(ticks) * sp.tick
	var read []op
	for i, due := 0, 5*time.Millisecond; due < window; i, due = i+1, due+10*time.Millisecond {
		box := r.f.boxes[(i*7)%sp.boxes].ID
		read = append(read, op{kind: opPlan, path: "/v1/boxes/" + box + "/plan", due: due})
		if i%10 == 0 {
			read = append(read, op{kind: opWhatIf, path: "/v1/boxes/" + box + "/whatif", due: due + 2*time.Millisecond})
		}
	}

	// dueAt[id] lists, per step the box closes in the window, the offset of
	// the request carrying that step's last tick.
	first := sc.need(0)
	dueAt := make(map[string][]time.Duration)
	firstStep := make(map[string]int)
	for b := range r.f.boxes {
		id := r.f.boxes[b].ID
		have := first + r.f.phase[b]
		firstStep[id] = (have - sc.train) / sc.horizon // steps closed in set-up
		for t := 0; t < ticks; t++ {
			if total := have + t + 1; (total-sc.train)%sc.horizon == 0 {
				dueAt[id] = append(dueAt[id], send[t*nb+b/batchBoxes].due)
				r.dueSteps++
			}
		}
	}

	prev := r.st.reg.Snapshot()
	lists := [][]op{send, read}
	var (
		start time.Time
		err   error
	)
	r.timed(func() {
		start = r.phase(ctx, lists)
		published := 0
		for _, ev := range r.st.events.Tail(0, "") {
			if isStep(&ev) {
				published++
			}
		}
		r.backlogEnd = sp.boxes + r.dueSteps - published
		err = r.st.waitSteps(sp.boxes+r.dueSteps, stepTimeout)
	})
	if err != nil {
		return err
	}
	r.rounds = ticks
	r.events = r.st.takeEvents()
	for i := range r.events {
		ev := &r.events[i]
		if ev.Type != "plan" {
			continue
		}
		k := ev.Step - firstStep[ev.Box]
		if k < 0 || k >= len(dueAt[ev.Box]) {
			continue // checkEvents reports the stray step
		}
		r.fresh = append(r.fresh, ev.Time.Sub(start.Add(dueAt[ev.Box][k])))
	}
	r.checkTotals(func(b int) int { return first + r.f.phase[b] + ticks })
	r.checkPlans(prev, r.events)
	return nil
}
