package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/state"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// waiting reports how many acquires are blocked on the gate.
func (g *gate) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.wait)
}

// waitFor polls cond until it holds; call it on the test goroutine.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if !poll(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

func poll(cond func() bool) bool {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// gateHarness drives a gate with synthetic due times: enqueue parks one
// goroutine per waiter and returns once it is on the wait list, so the
// list's content at every release is exactly what the test built.
type gateHarness struct {
	t    *testing.T
	g    *gate
	got  chan string // names, in dispatch order
	base time.Time
}

func newGateHarness(t *testing.T, slots int) *gateHarness {
	return &gateHarness{t: t, g: &gate{free: slots}, got: make(chan string), base: time.Unix(1000, 0)}
}

func (h *gateHarness) enqueue(name string, due time.Duration) {
	h.t.Helper()
	n := h.g.waiting()
	w := newWaiter()
	go func() {
		h.g.acquire(&w, h.base.Add(due))
		h.got <- name
	}()
	waitFor(h.t, name+" on the wait list", func() bool { return h.g.waiting() == n+1 })
}

// next releases one slot and returns who was dispatched into it.
func (h *gateHarness) next() string {
	h.g.release()
	return <-h.got
}

// TestGateBoundsAndOrder: the gate admits exactly its slot count
// without blocking, then dispatches waiters smallest due time first,
// arrival order among equals, whatever order they queued in.
func TestGateBoundsAndOrder(t *testing.T) {
	h := newGateHarness(t, 2)
	var w waiter
	h.g.acquire(&w, h.base) // both slots are free: neither call blocks
	h.g.acquire(&w, h.base)
	h.enqueue("e", 5)
	h.enqueue("a", 1)
	h.enqueue("c", 3)
	h.enqueue("b", 1)
	h.enqueue("d", 4)
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if got := h.next(); got != want {
			t.Fatalf("dispatched %q, want %q", got, want)
		}
	}
	// Seven acquires, five releases so far: after the last two the gate
	// is idle again.
	h.g.release()
	h.g.release()
	if h.g.free != 2 || h.g.waiting() != 0 {
		t.Fatalf("idle gate has %d free slots and %d waiters, want 2 and 0", h.g.free, h.g.waiting())
	}
}

// TestGateAging is the starvation bound on synthetic keys: one slot, a
// large step (ready at 0, estimate 100) and a small step (estimate 10)
// becoming ready every 10 time units for as long as it takes. Each
// release dispatches the smallest due time, so the small steps that
// became ready before time 90 go first — and then the large one does,
// ahead of every small step that became ready after it had waited its
// own length.
func TestGateAging(t *testing.T) {
	h := newGateHarness(t, 1)
	var w waiter
	h.g.acquire(&w, h.base)
	h.enqueue("large", 0+100)
	for now := time.Duration(0); ; now += 10 {
		if now > 1000 {
			t.Fatal("large step starved")
		}
		h.enqueue(fmt.Sprint("small@", now), now+10)
		got := h.next()
		if got != "large" {
			continue
		}
		// Small steps ready at 0..80 are due at 10..90 and went first;
		// the one ready at 90 ties at 100 and arrived later.
		if now != 90 {
			t.Fatalf("large step dispatched at time %d, want 90", now)
		}
		break
	}
}

// hookModel is a seasonal-naive forecaster that calls fit before every
// Fit — the seam the scheduler tests observe and stall steps through.
type hookModel struct {
	predict.SeasonalNaive
	fit func()
}

func (m *hookModel) Fit(h timeseries.Series) error {
	m.fit()
	return m.SeasonalNaive.Fit(h)
}

// schedFixture is a sharded store and engine over generated boxes of
// chosen sizes, every box on a shard of its own.
type schedFixture struct {
	t     testing.TB
	st    *state.Store
	e     *Engine
	spans *obs.RingExporter
	boxes []trace.Box
	fed   []int // ticks appended so far, per box
}

// newSchedFixture builds boxes with the given VM counts. fit runs at
// the start of every model fit, inside the step's scheduler slot.
func newSchedFixture(t testing.TB, shards int, vms []int, fit func(), mutate func(*Config)) *schedFixture {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{
		Boxes: len(vms), Days: 5, SamplesPerDay: 32, Seed: 71, GapFraction: 1e-9,
		MeanVMs: 16, MinVMs: 16, MaxVMs: 16,
	})
	spd := tr.SamplesPerDay
	cc := fastConfig(spd, false)
	cc.Temporal = func() predict.Model {
		return &hookModel{SeasonalNaive: predict.SeasonalNaive{Period: spd}, fit: fit}
	}
	st, err := state.NewStoreSharded(cc.TrainWindows+3*cc.Horizon, shards)
	if err != nil {
		t.Fatal(err)
	}
	f := &schedFixture{t: t, st: st, spans: obs.NewRingExporter(1024), boxes: tr.Boxes, fed: make([]int, len(vms))}
	cfg := Config{Core: cc, SamplesPerDay: spd, Tracer: obs.NewTracer(f.spans), Poll: 5 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	if f.e, err = New(st, cfg); err != nil {
		t.Fatal(err)
	}
	taken := make(map[int]bool)
	next := 0
	for i := range f.boxes {
		b := &f.boxes[i]
		b.VMs = b.VMs[:vms[i]]
		if len(vms) <= shards {
			// Rename the box onto a shard no other box of the fixture uses.
			for ; taken[st.ShardOf(b.ID)]; next++ {
				b.ID = fmt.Sprintf("box-%d", next)
			}
			taken[st.ShardOf(b.ID)] = true
		}
		if err := st.Register(state.MetaOf(b)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// feed appends box i's ticks up to (not including) tick `to`, going
// round the generated trace as often as that takes.
func (f *schedFixture) feed(i, to int) {
	f.t.Helper()
	b := &f.boxes[i]
	cpu := make([]float64, len(b.VMs))
	ram := make([]float64, len(b.VMs))
	for ; f.fed[i] < to; f.fed[i]++ {
		tick := f.fed[i] % len(b.VMs[0].CPU)
		for v := range b.VMs {
			cpu[v] = b.VMs[v].CPU[tick]
			ram[v] = b.VMs[v].RAM[tick]
		}
		if _, err := f.st.Append(b.ID, cpu, ram); err != nil {
			f.t.Fatalf("append %s: %v", b.ID, err)
		}
	}
}

// run starts the engine's shard loops and returns the function that
// drains them.
func (f *schedFixture) run() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.e.Run(ctx) }()
	return func() {
		cancel()
		<-done
	}
}

// waitSteps blocks until every listed box has fired n steps.
func (f *schedFixture) waitSteps(n int, boxes ...int) {
	f.t.Helper()
	waitFor(f.t, fmt.Sprintf("step %d of boxes %v", n-1, boxes), func() bool {
		for _, i := range boxes {
			if f.e.Steps(f.boxes[i].ID) < n {
				return false
			}
		}
		return true
	})
}

// dispatchOrder returns the fixture indices of the boxes that ran the
// given step, in the order the scheduler dispatched them: an
// engine.step span starts once its step holds a slot. (Plans publish
// after the slot is given back, so with fast steps their order can
// differ from the dispatch order by a neighbour.)
func (f *schedFixture) dispatchOrder(step int) []int {
	index := make(map[string]int, len(f.boxes))
	for i := range f.boxes {
		index[f.boxes[i].ID] = i
	}
	var steps []obs.SpanData
	for _, sp := range f.spans.Spans() {
		if n, _ := sp.Attrs.Get("step"); sp.Name == "engine.step" && n == step {
			steps = append(steps, sp)
		}
	}
	slices.SortFunc(steps, func(a, b obs.SpanData) int { return a.Start.Compare(b.Start) })
	order := make([]int, len(steps))
	for k, sp := range steps {
		id, _ := sp.Attrs.Get("box")
		order[k] = index[id.(string)]
	}
	return order
}

// TestEngineBurstBoundsConcurrentSteps: 32 boxes over 16 shard loops
// fall due at once with Workers 2. However many passes run, at most two
// model fits are ever in progress.
func TestEngineBurstBoundsConcurrentSteps(t *testing.T) {
	var fitting, peak atomic.Int32
	fit := func() {
		n := fitting.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond) // hold the fit open so that overlap, if allowed, happens
		fitting.Add(-1)
	}
	vms := make([]int, 32)
	all := make([]int, len(vms))
	for i := range vms {
		vms[i], all[i] = 2+i%7, i
	}
	f := newSchedFixture(t, 16, vms, fit, func(c *Config) { c.Workers = 2 })
	for i := range vms {
		f.feed(i, f.e.Need(0)-1)
	}
	stop := f.run()
	for i := range vms {
		f.feed(i, f.e.Need(0))
	}
	f.waitSteps(1, all...)
	stop()
	if p := peak.Load(); p < 1 || p > 2 {
		t.Fatalf("peak concurrent fits = %d, want 1..2 with Workers 2", p)
	}
}

// TestEngineBurstCheapestFirst: eight fresh boxes of different sizes,
// one per shard loop, fall due together with Workers 1. The first to
// reach the idle scheduler is dispatched at once and is held in its fit
// until the other seven are queued; those must then be dispatched
// smallest first. Their estimates are the engine's mean compute time per series
// (taken from a slowed warm-up step, so that size differences dwarf the
// microseconds between the passes' start times) times their series
// count.
func TestEngineBurstCheapestFirst(t *testing.T) {
	vms := []int{2, 10, 4, 14, 6, 16, 2, 12, 8} // box 0 is the warm-up box
	burst := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var slow, hold atomic.Bool
	var f *schedFixture
	fit := func() {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(100 * time.Millisecond)
		}
		if hold.CompareAndSwap(true, false) {
			poll(func() bool { return f.e.gate.waiting() == len(burst)-1 })
		}
	}
	f = newSchedFixture(t, 16, vms, fit, func(c *Config) { c.Workers = 1 })
	slow.Store(true)
	f.feed(0, f.e.Need(0))
	f.e.Sync(context.Background())
	for _, i := range burst {
		f.feed(i, f.e.Need(0)-1)
	}
	stop := f.run()
	hold.Store(true)
	for _, i := range burst {
		f.feed(i, f.e.Need(0))
	}
	f.waitSteps(1, burst...)
	stop()

	order := f.dispatchOrder(0)[1:] // minus the warm-up box
	if len(order) != len(burst) {
		t.Fatalf("%d steps dispatched, want %d", len(order), len(burst))
	}
	for k := 2; k < len(order); k++ {
		if vms[order[k]] < vms[order[k-1]] {
			t.Fatalf("after the first, steps were dispatched in VM-count order %v, want non-decreasing", sizes(vms, order[1:]))
		}
	}
}

func sizes(vms []int, order []int) []int {
	out := make([]int, len(order))
	for k, i := range order {
		out[k] = vms[i]
	}
	return out
}

// TestEngineLargeStepNotStarved: with the only slot taken, a large box
// falls due, then small boxes keep falling due — some before the large
// step has waited as long as it is estimated to run, some after. When
// the slot frees, the large step must go ahead of every small step of
// the second group: a step that has waited its own length outranks all
// newcomers.
func TestEngineLargeStepNotStarved(t *testing.T) {
	const blocker, large = 0, 1
	early, late := []int{2, 3, 4}, []int{5, 6, 7, 8, 9}
	vms := []int{2, 16, 2, 2, 2, 2, 2, 2, 2, 2}
	var slow, block atomic.Bool
	blocked, unblock := make(chan struct{}), make(chan struct{})
	fit := func() {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(60 * time.Millisecond)
		}
		if block.CompareAndSwap(true, false) {
			close(blocked)
			<-unblock
		}
	}
	f := newSchedFixture(t, 16, vms, fit, func(c *Config) { c.Workers = 1 })
	ctx := context.Background()

	// Step 0 everywhere, the large box's slowed: its estimate for step 1
	// is that step's slot time, which this Sync's wall time bounds.
	slow.Store(true)
	f.feed(large, f.e.Need(0))
	began := time.Now()
	f.e.Sync(ctx)
	estimate := time.Since(began)
	for i := range vms {
		f.feed(i, f.e.Need(0))
	}
	f.e.Sync(ctx)
	for i := range vms {
		f.feed(i, f.e.Need(1)-1)
	}
	stop := f.run()

	block.Store(true)
	f.feed(blocker, f.e.Need(1))
	<-blocked // the blocker's step holds the slot
	f.feed(large, f.e.Need(1))
	waitFor(t, "the large step to queue", func() bool { return f.e.gate.waiting() == 1 })
	queued := time.Now() // no earlier than the large step became ready
	for _, i := range early {
		f.feed(i, f.e.Need(1))
	}
	time.Sleep(time.Until(queued.Add(estimate)))
	for _, i := range late {
		f.feed(i, f.e.Need(1))
	}
	waitFor(t, "every step to queue", func() bool { return f.e.gate.waiting() == 1+len(early)+len(late) })
	close(unblock)
	f.waitSteps(2, blocker, large)
	f.waitSteps(2, early...)
	f.waitSteps(2, late...)
	stop()

	at := make(map[int]int)
	for k, i := range f.dispatchOrder(1) {
		at[i] = k
	}
	for _, i := range late {
		if at[i] < at[large] {
			t.Fatalf("small box %d, ready after the large step had waited its estimate (%v), was dispatched at %d before the large box at %d",
				i, estimate, at[i], at[large])
		}
	}
}

// blockingSetter is an actuation target whose first write blocks until
// released.
type blockingSetter struct {
	written          atomic.Bool
	blocked, unblock chan struct{}
}

func (s *blockingSetter) SetLimits(context.Context, string, core.Limits) error {
	if s.written.CompareAndSwap(false, true) {
		close(s.blocked)
		<-s.unblock
	}
	return nil
}

// TestEngineBlockedBackendHoldsNoSlot: with Workers 1, a box whose plan
// push is stuck in the backend has already given its slot back — a box
// on another shard computes and publishes its step meanwhile.
func TestEngineBlockedBackendHoldsNoSlot(t *testing.T) {
	set := &blockingSetter{blocked: make(chan struct{}), unblock: make(chan struct{})}
	f := newSchedFixture(t, 2, []int{3, 3}, func() {}, func(c *Config) {
		c.Workers = 1
		c.Setter = set
	})
	stop := f.run()
	f.feed(0, f.e.Need(0))
	<-set.blocked // box 0 computed its step and is stuck pushing it
	f.feed(1, f.e.Need(0))
	f.waitSteps(1, 1)
	if got := f.e.Steps(f.boxes[0].ID); got != 0 {
		t.Fatalf("box 0 published step %d while its push was still blocked", got)
	}
	close(set.unblock)
	f.waitSteps(1, 0)
	stop()
}

// TestEngineLagGaugeMaxOverShards: the lag gauge is the largest backlog
// over every shard's latest pass, so an idle shard's pass does not
// overwrite a lagging shard's figure with zero.
func TestEngineLagGaugeMaxOverShards(t *testing.T) {
	f := newSchedFixture(t, 2, []int{2, 2}, func() {}, nil)
	ctx := context.Background()
	const backlog = 5 // past the training window, short of a horizon: nothing fires
	f.feed(0, f.e.cfg.Core.TrainWindows+backlog)
	lagging := f.st.ShardOf(f.boxes[0].ID)
	f.e.SyncShard(ctx, lagging)
	if got := lagGauge.Value(); got != backlog {
		t.Fatalf("lag gauge = %v after the lagging shard's pass, want %d", got, backlog)
	}
	f.e.SyncShard(ctx, 1-lagging)
	if got := lagGauge.Value(); got != backlog {
		t.Fatalf("lag gauge = %v after an idle shard's pass, want %d still", got, backlog)
	}
	f.e.SyncShard(ctx, lagging) // nothing new landed: that shard's latest pass saw no backlog
	if got := lagGauge.Value(); got != 0 {
		t.Fatalf("lag gauge = %v after the lagging shard's idle pass, want 0", got)
	}
}

// TestEngineSchedulerMetrics: every step passes through the wait
// histogram, and the in-flight gauge returns to zero when the engine
// is idle.
func TestEngineSchedulerMetrics(t *testing.T) {
	f := newSchedFixture(t, 2, []int{2, 3}, func() {
		if got := stepsInflight.Value(); got < 1 {
			t.Errorf("steps in flight = %v during a fit, want >= 1", got)
		}
	}, nil)
	before := stepWaitSeconds.Count()
	f.feed(0, f.e.Need(1))
	f.feed(1, f.e.Need(0))
	f.e.Sync(context.Background())
	if got := stepWaitSeconds.Count() - before; got != 3 {
		t.Fatalf("wait histogram took %d observations for 3 steps", got)
	}
	if got := stepsInflight.Value(); got != 0 {
		t.Fatalf("steps in flight = %v on an idle engine, want 0", got)
	}
}

// BenchmarkEngineBurst is the rollover burst in miniature: 32 boxes of
// mixed sizes on 16 shard loops fall due at one instant, once per
// iteration. Every series is its own signature and the forecaster spins
// for a millisecond per fit, so a step costs in proportion to its box's
// size: 4 to 32 ms, several scheduler time slices. It reports the
// median time from that instant to a plan's publication — what the
// scheduler's ordering buys — beside the burst's makespan in ns/op.
func BenchmarkEngineBurst(b *testing.B) {
	fit := func() {
		for began := time.Now(); time.Since(began) < time.Millisecond; {
		}
	}
	vms := make([]int, 32)
	for i := range vms {
		vms[i] = 2 + i*7%15
	}
	events := obs.NewEventLog(len(vms))
	f := newSchedFixture(b, 16, vms, fit, func(c *Config) {
		c.Tracer = nil
		c.Events = events
		c.Core.Spatial.RhoTh = 0.9999
		c.Core.Spatial.SkipStepwise = true
	})
	stop := f.run()
	defer stop()
	burst := func(step int) time.Time {
		for i := range vms {
			f.feed(i, f.e.Need(step)-1)
		}
		b.StartTimer()
		due := time.Now()
		for i := range vms {
			f.feed(i, f.e.Need(step))
		}
		waitFor(b, "the burst's plans", func() bool { return events.Total() == uint64((step+1)*len(vms)) })
		b.StopTimer()
		return due
	}
	b.StopTimer()
	burst(0) // cold start: afterwards every box has an estimate of its own
	b.ResetTimer()
	var fresh []time.Duration
	for n := 1; n <= b.N; n++ {
		due := burst(n)
		for _, ev := range events.Tail(0, "") {
			fresh = append(fresh, ev.Time.Sub(due))
		}
	}
	slices.Sort(fresh)
	b.ReportMetric(float64(fresh[len(fresh)/2])/1e6, "ready-to-published-p50-ms")
}
