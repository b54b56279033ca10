package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/control"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/predict"
	"atm/internal/serve"
	"atm/internal/spatial"
	"atm/internal/timeseries"
)

// model selects the planning configuration a workload serves with.
type model int

const (
	// modelPaper is what `atmd -serve -control -actuate -policy` runs
	// with no tuning flags: exact unconstrained DTW + VIF and the
	// paper's MLP.
	modelPaper model = iota
	// modelLean is the tuned search every other harness in the repo
	// hardwires: LB_Keogh-pruned banded DTW and a seasonal-naive
	// forecaster.
	modelLean
	// modelReuse is modelLean with cross-window model reuse: steps
	// after the first refit instead of searching.
	modelReuse
)

// rails is the operator policy every planning workload actuates
// through: clamp mode, one rule for all VMs. RatePerSec stays 0 so
// that what is written never depends on timing.
var rails = policy.Config{
	Mode: policy.ModeClamp,
	Rules: []policy.Rule{{
		Match:     "*",
		MinCPUGHz: 0.05, MaxCPUGHz: 8, MaxStepCPUGHz: 2,
		MinRAMGB: 0.1, MaxRAMGB: 64, MaxStepRAMGB: 8,
	}},
}

// coreConfig returns the per-box pipeline configuration. mlpEpochs > 0
// replaces the paper model's default 60-epoch MLP by a shorter one
// (the smoke tests); tracing wraps every temporal model in a timing
// decorator, and otherwise leaves the factory exactly as production
// sets it (nil for the paper model).
func coreConfig(sc scale, m model, mlpEpochs int, rec *recorder) core.Config {
	cfg := core.Config{
		TrainWindows: sc.train,
		Horizon:      sc.horizon,
		Threshold:    0.6,
		Epsilon:      0.1,
		Degraded:     true,
	}
	var factory core.TemporalFactory
	switch m {
	case modelPaper:
		if mlpEpochs > 0 || rec != nil {
			factory = func() predict.Model {
				mlp := predict.DefaultMLP(sc.spd)
				if mlpEpochs > 0 {
					mlp.Epochs = mlpEpochs
				}
				return mlp
			}
		}
	case modelLean, modelReuse:
		cfg.Spatial = spatial.Config{Method: spatial.MethodDTW, DTWApprox: true, DTWWindow: 12}
		cfg.Reuse.Enabled = m == modelReuse
		factory = func() predict.Model { return &predict.SeasonalNaive{Period: sc.spd} }
	}
	if rec != nil {
		inner := factory
		factory = func() predict.Model { return timedModel(inner(), rec) }
	}
	cfg.Temporal = factory
	return cfg
}

// tracedModel times a temporal model's Fit and Forecast.
type tracedModel struct {
	predict.Model
	rec *recorder
}

func (m tracedModel) Fit(h timeseries.Series) error {
	id := m.rec.begin("predict.fit")
	err := m.Model.Fit(h)
	m.rec.end(id)
	if err != nil {
		m.rec.fitFailed()
	}
	return err
}

func (m tracedModel) Forecast(n int) (timeseries.Series, error) {
	id := m.rec.begin("predict.forecast")
	defer m.rec.end(id)
	return m.Model.Forecast(n)
}

// tracedIntoModel keeps the allocation-free ForecastInto path of the
// models that have one, so tracing does not move the pipeline onto its
// fallback path.
type tracedIntoModel struct {
	tracedModel
	into predict.IntoForecaster
}

func (m tracedIntoModel) ForecastInto(dst timeseries.Series, n int) (timeseries.Series, error) {
	id := m.rec.begin("predict.forecast")
	defer m.rec.end(id)
	return m.into.ForecastInto(dst, n)
}

func timedModel(inner predict.Model, rec *recorder) predict.Model {
	tm := tracedModel{Model: inner, rec: rec}
	if into, ok := inner.(predict.IntoForecaster); ok {
		return tracedIntoModel{tracedModel: tm, into: into}
	}
	return tm
}

// tracedBackend times the actuation target's reads and writes.
type tracedBackend struct {
	actuator.Backend
	rec *recorder
}

func (b tracedBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	sp := b.rec.begin("actuator.set")
	defer b.rec.end(sp)
	return b.Backend.SetLimits(ctx, id, l)
}

func (b tracedBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	sp := b.rec.begin("actuator.get")
	defer b.rec.end(sp)
	return b.Backend.GetLimits(ctx, id)
}

// stack is one booted instance of the program under test: the
// production serve.Service behind a real HTTP server, with the public
// surfaces the harness observes it through.
type stack struct {
	svc    *serve.Service
	srv    *httptest.Server
	reg    *actuator.Registry // the actuation target
	events *obs.EventLog
	core   core.Config
	rec    *recorder // nil when untraced
	// clients are the load generator's connections to this stack: two,
	// the sandbox's core count, which no workload exceeds.
	clients []*client

	seen      int // events consumed by takeEvents
	applyErrs int // apply_error events seen by waitSteps
}

// newStack boots the service. eventCap must cover every step the run
// can fire, so no event is overwritten before the harness reads it.
// Untraced, the engine runs as in production (svc.Start, one loop per
// shard, Workers 0); traced, it is left stopped and the harness drives
// SyncShard itself with Workers 1, so that spans nest.
func newStack(sp spec, eventCap int, rec *recorder) (*stack, error) {
	st := &stack{
		reg:    actuator.NewRegistry(),
		events: obs.NewEventLog(eventCap),
		core:   coreConfig(sp.sc, sp.model, sp.mlpEpochs, rec),
		rec:    rec,
	}
	ecfg := engine.Config{
		Core:          st.core,
		SamplesPerDay: sp.sc.spd,
		Control:       control.Config{Enabled: true},
		Backend:       st.reg,
		Policy:        &rails,
	}
	if rec != nil {
		ecfg.Workers = 1
		ecfg.Backend = tracedBackend{Backend: st.reg, rec: rec}
	}
	svc, err := serve.New(serve.Config{
		History: sp.sc.history,
		Engine:  ecfg,
		Events:  st.events,
	})
	if err != nil {
		return nil, fmt.Errorf("boot service: %w", err)
	}
	st.svc = svc
	mux := http.NewServeMux()
	mux.Handle("/v1/boxes/", timed(svc.Handler(), "serve.plan", rec))
	mux.Handle("/v1/ingest", timed(svc.IngestHandler(), "serve.ingest", rec))
	st.srv = httptest.NewServer(mux)
	st.clients = []*client{newClient(st.srv.URL, rec), newClient(st.srv.URL, rec)}
	if rec == nil {
		svc.Start()
	}
	return st, nil
}

// timed wraps a handler in a span; untraced it returns the handler
// itself, so the measured path has no middleware.
func timed(h http.Handler, name string, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.begin(name)
		defer rec.end(id)
		h.ServeHTTP(w, r)
	})
}

// close drains the engine and stops the server.
func (st *stack) close() {
	for _, c := range st.clients {
		c.close()
	}
	st.svc.Drain()
	st.srv.Close()
}

// preload registers boxes [0, n) and appends their ticks [0, upTo(b))
// straight into the store, and gives every VM its current allocation
// as the backend's starting limits (the state a real hypervisor is in
// before ATM's first write).
func (st *stack) preload(f *fleet, upTo func(b int) int) error {
	// Limits first: a running engine plans a box the moment its window
	// is complete, and that write must not be overwritten.
	st.seedLimits(f)
	for b := range f.boxes {
		if err := st.svc.Store().Register(f.metas[b]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		cpu, ram := f.ticks(b, 0, upTo(b))
		if _, err := st.svc.Store().AppendBatch(f.boxes[b].ID, cpu, ram); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (st *stack) seedLimits(f *fleet) {
	for b := range f.boxes {
		for _, vm := range f.metas[b].VMs {
			// Generated capacities are finite and positive, which is all
			// Set checks.
			_ = st.reg.Set(vm.ID, actuator.Limits{CPUGHz: vm.CPUCapGHz, RAMGB: vm.RAMCapGB})
		}
	}
}

// syncNotified runs one scheduling pass on every shard whose notify
// line fired — what engine.Run's per-shard loops do, from the harness
// goroutine. Only the traced run calls it (its engine is stopped).
func (st *stack) syncNotified(ctx context.Context) {
	store := st.svc.Store()
	for i := 0; i < store.Shards(); i++ {
		select {
		case <-store.NotifyShard(i):
			id := st.rec.begin("engine.pass")
			st.svc.Engine().SyncShard(ctx, i)
			st.rec.end(id)
		default:
		}
	}
}

// isStep reports whether the event closes a due (box, step): a plan,
// or one of the two outcomes that advance a box without one.
func isStep(ev *obs.Event) bool {
	return ev.Type == "plan" || ev.Type == "evicted" || ev.Type == "step_error"
}

// waitSteps blocks until want steps have been closed since the stack
// booted. Traced, the harness has already run every pass, so it only
// verifies. Polling reads one atomic; timings come from the events'
// own timestamps, not from when the poll noticed them.
func (st *stack) waitSteps(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if int(st.events.Total()) >= want+st.applyErrs {
			evs := st.events.Tail(0, "")
			steps := 0
			for i := range evs {
				if isStep(&evs[i]) {
					steps++
				}
			}
			if steps >= want {
				return nil
			}
			st.applyErrs = len(evs) - steps
		}
		if st.rec != nil || time.Now().After(deadline) {
			return fmt.Errorf("%d of %d due steps published after %v", st.events.Total(), want, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// takeEvents returns the events published since the last call.
func (st *stack) takeEvents() []obs.Event {
	evs := st.events.Tail(0, "")
	out := evs[st.seen:]
	st.seen = len(evs)
	return out
}
