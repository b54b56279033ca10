package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"atm/internal/actuator"
	"atm/internal/core"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/state"
	"atm/internal/timeseries"
	"atm/internal/trace"
)

// queued reports how many boxes are on the ready queue.
func (s *sched) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// held reports how many slots steps hold.
func (s *sched) held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
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

// gateHarness drives a scheduler with synthetic due times: enqueue
// pushes a box without dispatching, so the queue's content at every
// release is exactly what the test built.
type gateHarness struct {
	s    *sched
	got  chan string // names, in dispatch order
	base time.Time
}

func newGateHarness(slots int) *gateHarness {
	h := &gateHarness{got: make(chan string), base: time.Unix(1000, 0)}
	h.s = &sched{
		slots:      slots,
		start:      func(br *boxRun) { h.got <- br.id },
		lastAppend: func() time.Time { return time.Time{} },
	}
	return h
}

func (h *gateHarness) enqueue(name string, due time.Duration) {
	h.s.push(&boxRun{id: name, due: h.base.Add(due)})
}

// next releases one slot and returns who was dispatched into it.
func (h *gateHarness) next() string {
	h.s.dispatch(1)
	return <-h.got
}

// TestGateBoundsAndOrder: the scheduler admits exactly its slot count,
// then dispatches queued boxes smallest due time first, push order among
// equals, whatever order they queued in.
func TestGateBoundsAndOrder(t *testing.T) {
	h := newGateHarness(2)
	if !h.s.tryAcquire(&boxRun{}) || !h.s.tryAcquire(&boxRun{}) { // both slots are free
		t.Fatal("a free slot was refused")
	}
	if h.s.tryAcquire(&boxRun{}) {
		t.Fatal("a third step was admitted to two slots")
	}
	h.enqueue("e", 5)
	h.enqueue("a", 1)
	h.enqueue("c", 3)
	h.enqueue("b", 1)
	h.enqueue("d", 4)
	h.s.dispatch(0) // no slot is free: nothing starts
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if got := h.next(); got != want {
			t.Fatalf("dispatched %q, want %q", got, want)
		}
	}
	// Seven slots taken, five given back so far: after the last two the
	// scheduler is idle again.
	h.s.dispatch(1)
	h.s.dispatch(1)
	if h.s.held() != 0 || h.s.queued() != 0 {
		t.Fatalf("idle scheduler holds %d slots and %d boxes, want 0 and 0", h.s.held(), h.s.queued())
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
	h := newGateHarness(1)
	h.s.tryAcquire(&boxRun{})
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
		// the one ready at 90 ties at 100 and was pushed later.
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
	fit func(h timeseries.Series)
}

func (m *hookModel) Fit(h timeseries.Series) error {
	m.fit(h)
	return m.SeasonalNaive.Fit(h)
}

// spanLog keeps every finished span, in the order they ended.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (l *spanLog) ExportSpan(s obs.SpanData) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []obs.SpanData {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.SpanData(nil), l.spans...)
}

// attr returns the span's value for key, nil when unset.
func attr(sp obs.SpanData, key string) any {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// schedFixture is a sharded store and engine over generated boxes of
// chosen sizes, every box on a shard of its own.
type schedFixture struct {
	t     testing.TB
	st    *state.Store
	e     *Engine
	spans *spanLog
	boxes []trace.Box
	fed   []int // ticks appended so far, per box

	// onFit, when set (before the engine first runs), is called at the
	// start of a model fit with the fixture index of the box and the step
	// whose model phase the fit belongs to — for every training series
	// that only one window of one box has (all but the odd idle VM's).
	onFit  func(box, step int)
	phases map[uint64][2]int // hash of a training series -> (box, step), or (-1, -1) when several have it
}

// seriesHash is FNV-1a over the samples' bits.
func seriesHash(h timeseries.Series) uint64 {
	sum := uint64(14695981039346656037)
	for _, v := range h {
		sum = (sum ^ math.Float64bits(v)) * 1099511628211
	}
	return sum
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
	st, err := state.NewStoreSharded(cc.TrainWindows+3*cc.Horizon, shards)
	if err != nil {
		t.Fatal(err)
	}
	f := &schedFixture{t: t, st: st, spans: &spanLog{}, boxes: tr.Boxes, fed: make([]int, len(vms))}
	cc.Temporal = func() predict.Model {
		return &hookModel{SeasonalNaive: predict.SeasonalNaive{Period: spd}, fit: func(h timeseries.Series) {
			if at, ok := f.phases[seriesHash(h)]; ok && at[0] >= 0 && f.onFit != nil {
				f.onFit(at[0], at[1])
			}
			fit()
		}}
	}
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
	f.phases = make(map[uint64][2]int)
	train := make(timeseries.Series, cc.TrainWindows)
	for i := range f.boxes {
		for _, vm := range f.boxes[i].VMs {
			for step := 0; step*cc.Horizon+cc.TrainWindows <= len(vm.CPU); step++ {
				for _, r := range []trace.Resource{trace.CPU, trace.RAM} {
					scale := vm.Capacity(r) / 100
					for j, u := range vm.Usage(r)[step*cc.Horizon:][:cc.TrainWindows] {
						train[j] = u * scale
					}
					key, at := seriesHash(train), [2]int{i, step}
					if _, taken := f.phases[key]; taken {
						at = [2]int{-1, -1}
					}
					f.phases[key] = at
				}
			}
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
		if _, err := f.st.AppendBatch(b.ID, [][]float64{cpu}, [][]float64{ram}); err != nil {
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

// waitState blocks until box i's debug state reads as given.
func (f *schedFixture) waitState(i int, state string) {
	f.t.Helper()
	waitFor(f.t, fmt.Sprintf("box %d to be %s", i, state), func() bool {
		d, _ := f.e.Debug(f.boxes[i].ID)
		return d.State == state
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
	for _, sp := range f.spans.all() {
		if n := attr(sp, "step"); sp.Name == "engine.step" && n == step {
			steps = append(steps, sp)
		}
	}
	slices.SortFunc(steps, func(a, b obs.SpanData) int { return a.Start.Compare(b.Start) })
	order := make([]int, len(steps))
	for k, sp := range steps {
		order[k] = index[attr(sp, "box").(string)]
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
			poll(func() bool { return f.e.sched.queued() == len(burst)-1 })
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
// newcomers. Every step here is a box's first — later ones have their
// model phase behind them when they fall due and are estimated at
// nothing — so the estimates are the engine's mean compute time per
// series, from a slowed warm-up box, times each box's series count.
func TestEngineLargeStepNotStarved(t *testing.T) {
	const warm, blocker, large = 0, 1, 2
	early, late := []int{3, 4, 5}, []int{6, 7, 8, 9, 10}
	vms := []int{2, 2, 16, 2, 2, 2, 2, 2, 2, 2, 2}
	var slow atomic.Bool
	block := newFitBlock()
	f := newSchedFixture(t, 16, vms, func() {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(60 * time.Millisecond)
		}
		block.fit()
	}, func(c *Config) { c.Workers = 1 })

	slow.Store(true)
	f.feed(warm, f.e.Need(0))
	f.e.Sync(context.Background())
	estimate := time.Duration(f.e.computeNs.Load() / f.e.computeSeries.Load() * int64(2*vms[large]))
	stop := f.run()

	block.armed.Store(true)
	f.feed(blocker, f.e.Need(0))
	<-block.blocked // the blocker's step holds the slot
	f.feed(large, f.e.Need(0))
	waitFor(t, "the large step to queue", func() bool { return f.e.sched.queued() == 1 })
	queued := time.Now() // no earlier than the large step became ready
	for _, i := range early {
		f.feed(i, f.e.Need(0))
	}
	time.Sleep(time.Until(queued.Add(estimate)))
	for _, i := range late {
		f.feed(i, f.e.Need(0))
	}
	waitFor(t, "every step to queue", func() bool { return f.e.sched.queued() == 1+len(early)+len(late) })
	close(block.unblock)
	f.waitSteps(1, blocker, large)
	f.waitSteps(1, early...)
	f.waitSteps(1, late...)
	stop()

	at := make(map[int]int)
	for k, i := range f.dispatchOrder(0) {
		at[i] = k
	}
	for _, i := range late {
		if at[i] < at[large] {
			t.Fatalf("small box %d, ready after the large step had waited its estimate (%v), was dispatched at %d before the large box at %d",
				i, estimate, at[i], at[large])
		}
	}
}

// blockingBackend is an actuation target whose first write blocks
// until released.
type blockingBackend struct {
	actuator.Backend
	written          atomic.Bool
	blocked, unblock chan struct{}
}

func (s *blockingBackend) SetLimits(context.Context, string, actuator.Limits) error {
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
	set := &blockingBackend{Backend: actuator.NewRegistry(), blocked: make(chan struct{}), unblock: make(chan struct{})}
	f := newSchedFixture(t, 2, []int{3, 3}, func() {}, func(c *Config) {
		c.Workers = 1
		c.Backend = set
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

// fitBlock is a fit hook that, once armed, parks the next fit until
// opened: the step it belongs to keeps its scheduler slot meanwhile.
type fitBlock struct {
	armed            atomic.Bool
	blocked, unblock chan struct{}
}

func newFitBlock() *fitBlock {
	return &fitBlock{blocked: make(chan struct{}), unblock: make(chan struct{})}
}

// parked reports whether a fit is parked, or was.
func (b *fitBlock) parked() bool {
	select {
	case <-b.blocked:
		return true
	default:
		return false
	}
}

func (b *fitBlock) fit() {
	if b.armed.CompareAndSwap(true, false) {
		close(b.blocked)
		<-b.unblock
	}
}

// TestEnginePassDoesNotWaitForSteps: while a step of one box is stuck,
// a box of the same shard that falls due afterwards is found, stepped
// and published — the shard's loop does not wait on compute.
func TestEnginePassDoesNotWaitForSteps(t *testing.T) {
	block := newFitBlock()
	f := newSchedFixture(t, 1, []int{3, 3}, block.fit, func(c *Config) { c.Workers = 2 })
	stop := f.run()
	block.armed.Store(true)
	f.feed(0, f.e.Need(0))
	<-block.blocked // box 0's step holds a slot, and would hold the pass
	f.feed(1, f.e.Need(0))
	f.waitSteps(1, 1)
	if d, _ := f.e.Debug(f.boxes[0].ID); d.State != "running" || d.Steps != 0 {
		t.Fatalf("blocked box is %s after %d steps, want running after 0", d.State, d.Steps)
	}
	close(block.unblock)
	f.waitSteps(1, 0)
	stop()
}

// TestEngineBurstOrderAcrossPasses: with the only slot taken, large
// boxes fall due on every shard, and once they are queued small boxes
// do on the same shards. When the slot frees they must be dispatched
// smallest first: every due box is on the one queue from the moment a
// pass finds it, not held back behind the boxes an earlier pass of its
// shard found. Estimates come from a slowed warm-up step, as in
// TestEngineBurstCheapestFirst.
func TestEngineBurstOrderAcrossPasses(t *testing.T) {
	vms := []int{2, 12, 14, 16, 12, 14, 16, 4, 6, 8, 4, 6, 8, 2} // box 0 warms up, the last one blocks
	early, late, blocker := []int{1, 2, 3, 4, 5, 6}, []int{7, 8, 9, 10, 11, 12}, 13
	var slow atomic.Bool
	block := newFitBlock()
	f := newSchedFixture(t, 3, vms, func() {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(100 * time.Millisecond)
		}
		block.fit()
	}, func(c *Config) { c.Workers = 1 })
	mixed := false // some shard must hold a box of either batch
	for _, i := range early {
		for _, j := range late {
			mixed = mixed || f.st.ShardOf(f.boxes[i].ID) == f.st.ShardOf(f.boxes[j].ID)
		}
	}
	if !mixed {
		t.Fatal("fixture puts no early and late box on one shard")
	}
	slow.Store(true)
	f.feed(0, f.e.Need(0))
	f.e.Sync(context.Background())
	for i := 1; i < len(vms); i++ {
		f.feed(i, f.e.Need(0)-1)
	}
	stop := f.run()
	block.armed.Store(true)
	f.feed(blocker, f.e.Need(0))
	<-block.blocked
	for _, i := range early {
		f.feed(i, f.e.Need(0))
	}
	waitFor(t, "the large boxes to queue", func() bool { return f.e.sched.queued() == len(early) })
	for _, i := range late {
		f.feed(i, f.e.Need(0))
	}
	waitFor(t, "the small boxes to queue", func() bool { return f.e.sched.queued() == len(early)+len(late) })
	close(block.unblock)
	f.waitSteps(1, early...)
	f.waitSteps(1, late...)
	stop()

	order := f.dispatchOrder(0)[2:] // minus the warm-up step and the blocker's
	if len(order) != len(early)+len(late) {
		t.Fatalf("%d steps dispatched, want %d", len(order), len(early)+len(late))
	}
	for k := 1; k < len(order); k++ {
		if vms[order[k]] < vms[order[k-1]] {
			t.Fatalf("steps were dispatched in VM-count order %v, want non-decreasing", sizes(vms, order))
		}
	}
}

// TestEngineBoxNeverStepsConcurrently hammers two boxes with appends
// from several goroutines while their model phases are slow, so that
// windows complete while the box's next phase is queued, running or done
// — with slots to spare, and with one slot for both boxes. At no time do
// two pieces of one box's work run, every window is stepped (or found
// evicted) exactly once and in order, every plan comes of a model phase
// computed exactly once, and no window is left behind after the last
// append.
func TestEngineBoxNeverStepsConcurrently(t *testing.T) {
	const windows = 6
	for _, workers := range []int{4, 1} {
		var fitting [2]atomic.Int32
		events := obs.NewEventLog(4 * windows)
		f := newSchedFixture(t, 2, []int{2, 3}, func() {}, func(c *Config) {
			c.Workers = workers
			c.Events = events
		})
		f.onFit = func(box, _ int) {
			if fitting[box].Add(1) > 1 {
				t.Error("two model phases of one box ran at once")
			}
			time.Sleep(200 * time.Microsecond)
			fitting[box].Add(-1)
		}
		// A phase run ahead of a window that was then evicted is found
		// stale by the next step, which computes its own.
		phases := func() float64 { return modelPhases("ahead") + modelPhases("inline") + modelPhases("stale") }
		ran := phases()
		stop := f.run()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(box int) {
				defer wg.Done()
				for {
					mu.Lock()
					done := f.fed[box] >= f.e.Need(windows-1)
					if !done {
						f.feed(box, f.fed[box]+1)
					}
					mu.Unlock()
					if done {
						return
					}
				}
			}(g % 2)
		}
		wg.Wait()
		f.waitSteps(windows, 0, 1)
		stop()
		plans := 0 // the other outcomes are windows the appends evicted before their step ran
		for box := range f.boxes {
			evs := events.Tail(0, f.boxes[box].ID)
			if len(evs) != windows {
				t.Fatalf("Workers %d: %d step outcomes published for box %d's %d windows", workers, len(evs), box, windows)
			}
			for k, ev := range evs {
				if ev.Step != k {
					t.Fatalf("Workers %d: box %d's outcome %d is of step %d (%s): steps must be contiguous", workers, box, k, ev.Step, ev.Type)
				}
				if ev.Type == "plan" {
					plans++
				}
			}
		}
		if got := phases() - ran; got != float64(plans) {
			t.Fatalf("Workers %d: %v model phases served %d plans, want one each", workers, got, plans)
		}
	}
}

// TestEngineIngestHeadroom: while batches keep landing the scheduler
// runs due steps in all but one of its slots; within a few ingestLinger
// of the last batch it uses them all. A single slot is never kept back.
// The slot kept back is lent to model phases run ahead (see
// ingestHeadroomAhead).
func TestEngineIngestHeadroom(t *testing.T) {
	for _, workers := range []int{3, 1} {
		var fitting atomic.Int32
		var landing atomic.Bool
		unblock := make(chan struct{})
		vms := []int{2, 2, 2, 2, 2}
		f := newSchedFixture(t, 8, vms, func() {
			fitting.Add(1)
			<-unblock
		}, func(c *Config) { c.Workers = workers })
		// Batches "keep landing" for as long as the flag is up; after
		// that the store's own stamp, of the feeds below, is what counts.
		f.e.sched.lastAppend = func() time.Time {
			if landing.Load() {
				return time.Now()
			}
			return f.st.LastAppend()
		}
		landing.Store(true)
		stop := f.run()
		for i := range vms {
			f.feed(i, f.e.Need(0))
		}
		during := max(workers-1, 1)
		waitFor(t, "the slots open during ingest to fill", func() bool { return int(fitting.Load()) == during })
		waitFor(t, "the other boxes to queue", func() bool { return f.e.sched.queued() == len(vms)-during })
		time.Sleep(5 * ingestLinger)
		if got := int(fitting.Load()); got != during {
			t.Fatalf("Workers %d: %d steps in flight while batches land, want %d", workers, got, during)
		}
		landing.Store(false)
		waitFor(t, "every slot to fill after ingest", func() bool { return int(fitting.Load()) == workers })
		close(unblock)
		f.waitSteps(1, 0, 1, 2, 3, 4)
		stop()
		if held := f.e.sched.held(); held != 0 {
			t.Fatalf("Workers %d: %d slots held by an idle engine", workers, held)
		}
	}
	ingestHeadroomAhead(t)
}

// ingestHeadroomAhead: while batches keep landing, the model phases run
// ahead by boxes that have planned fill every slot, the one shut for
// ingest included, and a box going on from its step into its next phase
// takes that slot itself (tryAcquire), with no dispatch; a due step
// queued meanwhile waits for the slot until the batches stop.
func ingestHeadroomAhead(t *testing.T) {
	const workers = 3
	var landing atomic.Bool
	first := newFitBlock() // box 0's step
	ahead := make([]*fitBlock, 4)
	for i := range ahead {
		ahead[i] = newFitBlock()
	}
	f := newSchedFixture(t, 8, []int{2, 2, 2, 2}, func() {}, func(c *Config) { c.Workers = workers })
	f.onFit = func(box, step int) {
		switch step {
		case 0:
			if box == 0 {
				first.fit()
			}
		case 1:
			ahead[box].fit()
		}
	}
	f.e.sched.lastAppend = func() time.Time {
		if landing.Load() {
			return time.Now()
		}
		return f.st.LastAppend()
	}
	var starts atomic.Int32
	run := f.e.sched.start
	f.e.sched.start = func(br *boxRun) {
		starts.Add(1)
		run(br)
	}
	for _, b := range ahead[:3] {
		b.armed.Store(true)
	}
	landing.Store(true)
	stop := f.run()
	first.armed.Store(true)
	f.feed(0, f.e.Need(0))
	<-first.blocked
	f.feed(1, f.e.Need(0))
	waitFor(t, "box 1 to plan and go on into its next phase", ahead[1].parked)
	f.feed(2, f.e.Need(0))
	waitFor(t, "box 2's step to queue", func() bool { return f.e.sched.queued() == 1 })
	time.Sleep(5 * ingestLinger)
	if q, held := f.e.sched.queued(), f.e.sched.held(); q != 1 || held != workers-1 {
		t.Fatalf("a due step took the slot shut for ingest: %d queued, %d slots held, want 1 and %d", q, held, workers-1)
	}
	started := starts.Load()
	close(first.unblock) // box 2's step takes box 0's slot
	waitFor(t, "boxes 0 and 2 to go on into their next phases", func() bool { return ahead[0].parked() && ahead[2].parked() })
	if held := f.e.sched.held(); held != workers {
		t.Fatalf("%d slots held by model phases run ahead while batches land, want %d", held, workers)
	}
	if got := starts.Load() - started; got != 1 {
		t.Fatalf("%d dispatches for box 2's step and two boxes going on into their phases, want 1: the phases take their slots through tryAcquire", got)
	}
	f.feed(3, f.e.Need(0))
	waitFor(t, "box 3's step to queue", func() bool { return f.e.sched.queued() == 1 })
	close(ahead[1].unblock) // the slot box 1 gives back is the one shut for ingest
	waitFor(t, "box 1's phase to end", func() bool { return f.e.sched.held() == workers-1 })
	time.Sleep(5 * ingestLinger)
	if d, _ := f.e.Debug(f.boxes[3].ID); d.State != "queued" || f.e.sched.held() != workers-1 {
		t.Fatalf("box 3's due step is %s with %d slots held while batches land, want queued and %d", d.State, f.e.sched.held(), workers-1)
	}
	landing.Store(false)
	f.waitSteps(1, 3)
	close(ahead[0].unblock)
	close(ahead[2].unblock)
	for i := range ahead {
		f.waitState(i, "prepared")
	}
	stop()
	if held := f.e.sched.held(); held != 0 {
		t.Fatalf("%d slots held by an idle engine", held)
	}
}

// TestEngineCancelWhileQueued: cancelling Run while boxes wait on the
// queue starts none of their steps; Run returns once the step in flight
// has finished, with the queue empty and every box idle.
func TestEngineCancelWhileQueued(t *testing.T) {
	block := newFitBlock()
	f := newSchedFixture(t, 4, []int{2, 2, 2}, block.fit, func(c *Config) { c.Workers = 1 })
	stop := f.run()
	block.armed.Store(true)
	f.feed(0, f.e.Need(0))
	<-block.blocked
	f.feed(1, f.e.Need(0))
	f.feed(2, f.e.Need(0))
	waitFor(t, "two boxes to queue", func() bool { return f.e.sched.queued() == 2 })
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Run returned with a step in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(block.unblock)
	<-stopped
	if got := []int{f.e.Steps(f.boxes[0].ID), f.e.Steps(f.boxes[1].ID), f.e.Steps(f.boxes[2].ID)}; !slices.Equal(got, []int{1, 0, 0}) {
		t.Fatalf("steps after cancel = %v, want [1 0 0]: the step in flight finishes, queued ones do not start", got)
	}
	if q, held := f.e.sched.queued(), f.e.sched.held(); q != 0 || held != 0 {
		t.Fatalf("drained engine has %d boxes queued and %d slots held", q, held)
	}
	for i := range f.boxes {
		if d, ok := f.e.Debug(f.boxes[i].ID); !ok || d.State != "idle" {
			t.Fatalf("box %d is %q after the drain, want idle", i, d.State)
		}
	}
}

// TestEngineStepPanicQuarantinesWindow: a forecaster that panics in one
// model phase of a box costs that window only, whether the phase runs
// inside the due step (the box's first window) or ahead of it, in the
// background (its third). The process survives, the sibling plans,
// nothing shows until the window is due — then the panic is published as
// its step_error — and the box, on a fresh pipeline, plans again on the
// window after.
func TestEngineStepPanicQuarantinesWindow(t *testing.T) {
	for _, bad := range []int{0, 2} {
		events := obs.NewEventLog(16)
		f := newSchedFixture(t, 2, []int{3, 3}, func() {}, func(c *Config) {
			c.Workers = 2
			c.Events = events
		})
		var boomed atomic.Bool
		f.onFit = func(box, step int) {
			if box == 0 && step == bad && boomed.CompareAndSwap(false, true) {
				panic("forecaster exploded")
			}
		}
		panics := stepPanics.Value()
		var old *core.Pipeline // box 0's, while it still has its first (never, when that dies at once)
		stop := f.run()
		for step := 0; step < bad; step++ {
			if step > 0 {
				old = f.e.shards[f.st.ShardOf(f.boxes[0].ID)].boxes[f.boxes[0].ID].pipe
			}
			f.feed(0, f.e.Need(step))
			f.feed(1, f.e.Need(step))
			f.waitSteps(step+1, 0, 1)
		}
		if bad > 0 {
			// The phase of the bad window runs, and dies, as soon as the
			// window before it has published; until the bad window is due
			// there is nothing to see but the counter.
			waitFor(t, "the background panic", func() bool { return stepPanics.Value()-panics == 1 })
			f.waitState(0, "prepared")
			if err := f.e.LastErr(f.boxes[0].ID); err != nil {
				t.Fatalf("window %d: the panic surfaced as %v before its window was due", bad, err)
			}
			for _, ev := range events.Tail(0, "") {
				if ev.Type == "step_error" {
					t.Fatalf("window %d: %+v published before the window was due", bad, ev)
				}
			}
		}
		f.feed(0, f.e.Need(bad))
		f.waitSteps(bad+1, 0)
		if err := f.e.LastErr(f.boxes[0].ID); err == nil || !strings.Contains(err.Error(), "forecaster exploded") {
			t.Fatalf("window %d: last error after the panic = %v, want the panic value", bad, err)
		}
		if got := stepPanics.Value() - panics; got != 1 {
			t.Fatalf("window %d: panic counter moved by %v, want 1", bad, got)
		}
		f.feed(1, f.e.Need(bad))
		f.feed(0, f.e.Need(bad+1))
		f.waitSteps(bad+1, 1)
		f.waitSteps(bad+2, 0)
		stop()
		if p, ok := f.e.Plan(f.boxes[0].ID); !ok || p.Step != bad+1 {
			t.Fatalf("window %d: box 0's plan after the window that followed = step %d (%v), want %d", bad, p.Step, ok, bad+1)
		}
		if err := f.e.LastErr(f.boxes[0].ID); err != nil {
			t.Fatalf("window %d: box 0's last error after a clean step = %v", bad, err)
		}
		if f.e.shards[f.st.ShardOf(f.boxes[0].ID)].boxes[f.boxes[0].ID].pipe == old {
			t.Fatalf("window %d: the panicked pipeline was kept", bad)
		}
		var failed []obs.Event
		for _, ev := range events.Tail(0, "") {
			if ev.Type == "step_error" {
				failed = append(failed, ev)
			}
		}
		if len(failed) != 1 || failed[0].Box != f.boxes[0].ID || failed[0].Step != bad || !strings.Contains(failed[0].Err, "forecaster exploded") {
			t.Fatalf("window %d: step_error events = %+v, want one for box 0's step %d carrying the panic", bad, failed, bad)
		}
		if held, inflight := f.e.sched.held(), stepsInflight.Value(); held != 0 || inflight != 0 {
			t.Fatalf("window %d: after the panic %d slots are held and %v steps in flight, want 0 and 0", bad, held, inflight)
		}
	}
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
	// Under Run a pass ends before the steps it queued: it reports their
	// windows as backlog, and the gauge must fall when they are consumed,
	// not at the next append.
	stop := f.run()
	f.feed(0, f.e.Need(0))
	f.feed(1, f.e.Need(0))
	f.waitSteps(1, 0, 1)
	waitFor(t, "the lag gauge to fall to 0 once the burst has drained", func() bool { return lagGauge.Value() == 0 })
	stop()
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
// mixed sizes on 16 shard loops fall due once per iteration — at one
// instant right after the previous burst (together), in 4 batches 1 ms
// apart, the later ones while the first are stepping (staggered), or at
// one instant once the engine has gone idle after the previous burst, as
// a day boundary finds it (paced). Every series is its own signature and
// the forecaster spins for a millisecond per fit, so a model phase costs
// in proportion to its box's size: 4 to 32 ms, several scheduler time
// slices. It reports the median time from a box's completing append to
// its plan's publication — what the scheduler's ordering, and in paced
// the model phases run ahead, buy — and the process CPU time a burst
// costs from the plans before it to its own, beside the burst's makespan
// in ns/op.
func BenchmarkEngineBurst(b *testing.B) {
	b.Run("together", func(b *testing.B) { benchBurst(b, 1, false) })
	b.Run("staggered", func(b *testing.B) { benchBurst(b, 4, false) })
	b.Run("paced", func(b *testing.B) { benchBurst(b, 1, true) })
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func benchBurst(b *testing.B, batches int, paced bool) {
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
	due := make(map[string]time.Time, len(vms))
	burst := func(step int) {
		for i := range vms {
			f.feed(i, f.e.Need(step)-1)
		}
		if paced {
			waitFor(b, "the engine to go idle", func() bool { return f.e.sched.held() == 0 && f.e.sched.queued() == 0 })
		}
		b.StartTimer()
		began := time.Now()
		for i := range vms {
			// Batch k goes in k ms after the first.
			time.Sleep(time.Until(began.Add(time.Duration(i*batches/len(vms)) * time.Millisecond)))
			due[f.boxes[i].ID] = time.Now()
			f.feed(i, f.e.Need(step))
		}
		waitFor(b, "the burst's plans", func() bool { return events.Total() == uint64((step+1)*len(vms)) })
		b.StopTimer()
	}
	b.StopTimer()
	burst(0) // cold start: afterwards every box has an estimate of its own
	b.ResetTimer()
	var fresh []time.Duration
	cpu := cpuTime(b)
	for n := 1; n <= b.N; n++ {
		burst(n)
		for _, ev := range events.Tail(0, "") {
			fresh = append(fresh, ev.Time.Sub(due[ev.Box]))
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/burst")
	slices.Sort(fresh)
	b.ReportMetric(float64(fresh[len(fresh)/2])/1e6, "ready-to-published-p50-ms")
}
