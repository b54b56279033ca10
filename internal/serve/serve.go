// Package serve implements the streaming ATM HTTP service: a sharded
// state store fed by the ingestion API, the scheduling engine
// re-planning each box as samples stream in, and the handlers that
// expose both over the daemon's mux. It lives outside cmd/atmd so the
// load harness (cmd/atmload -selftest) and the loadsmoke CI target can
// boot the exact production service in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/actuator/policy"
	"atm/internal/engine"
	"atm/internal/obs"
	"atm/internal/state"
)

// DefaultMaxBody caps ingest request bodies at 8 MiB — generous for a
// day of samples across a large batch, small enough that a misbehaving
// client cannot balloon the daemon's heap.
const DefaultMaxBody = 8 << 20

// DefaultSpanRing is the capacity of the in-memory span ring that
// backs the per-box debug endpoint's trace lookup.
const DefaultSpanRing = 4096

var (
	// ingestBatchSize tracks how many box entries each /v1/ingest body
	// carries: the knob the load generator turns to trade request
	// overhead against body size. Count buckets, not latency buckets.
	ingestBatchSize = obs.Default().Histogram(
		"atm_ingest_batch_size",
		"Box entries per /v1/ingest request body.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	// planLatency times plan serving alone — the route the paper's
	// operators poll, so its tail must stay visible separately from the
	// shared /v1/boxes/:id route histogram that also covers ingest.
	planLatency = obs.Default().Histogram(
		"atm_plan_serve_seconds",
		"Latency of GET /v1/boxes/{id}/plan responses in seconds.",
		nil)
)

// Config assembles a Service.
type Config struct {
	// History is the samples retained per series.
	History int
	// Shards is the state-store shard count; 0 selects
	// state.DefaultShards.
	Shards int
	// Engine is passed through to engine.New.
	Engine engine.Config
	// MaxBody caps ingestion request bodies in bytes; 0 selects
	// DefaultMaxBody, negative disables the cap.
	MaxBody int64
	// Events, when non-nil, is the decision event log the engine
	// publishes to; nil builds a fresh obs.DefaultEventCap log. Either
	// way GET /v1/events serves its tail.
	Events *obs.EventLog
	// SpanExporters are extra span sinks (e.g. a durable
	// obs.FileSpanExporter) attached after the service's in-memory
	// ring.
	SpanExporters []obs.Exporter
	// SpanRing is the in-memory span ring capacity backing the debug
	// endpoint's trace lookup; 0 selects DefaultSpanRing.
	SpanRing int
}

// Service bundles the streaming ATM stack: the state store fed by the
// ingestion API, the engine scheduling rolling pipeline steps over it,
// and the engine's lifecycle (cancel + done) for graceful drain.
type Service struct {
	store   *state.Store
	engine  *engine.Engine
	maxBody int64

	// Observability plane: the tracer spans every ingest request and
	// engine step into the ring (plus any configured durable
	// exporters); the event log carries the engine's typed decisions.
	tracer *obs.Tracer
	ring   *obs.RingExporter
	events *obs.EventLog

	started  atomic.Bool // Start called
	draining atomic.Bool // BeginDrain/Drain called

	cancel context.CancelFunc
	done   chan struct{}
}

// New builds the store and engine; the engine loop is not started yet
// (call Start, or drive Engine().Sync directly in tests).
func New(cfg Config) (*Service, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = state.DefaultShards
	}
	st, err := state.NewStoreSharded(cfg.History, shards)
	if err != nil {
		return nil, err
	}
	spanRing := cfg.SpanRing
	if spanRing <= 0 {
		spanRing = DefaultSpanRing
	}
	ring := obs.NewRingExporter(spanRing)
	tracer := obs.NewTracer(append([]obs.Exporter{ring}, cfg.SpanExporters...)...)
	events := cfg.Events
	if events == nil {
		events = obs.NewEventLog(obs.DefaultEventCap)
	}
	// Wire the engine into the same plane unless the caller brought
	// their own (tests that assert on a private tracer/log).
	if cfg.Engine.Tracer == nil {
		cfg.Engine.Tracer = tracer
	} else {
		tracer = cfg.Engine.Tracer
	}
	if cfg.Engine.Events == nil {
		cfg.Engine.Events = events
	} else {
		events = cfg.Engine.Events
	}
	eng, err := engine.New(st, cfg.Engine)
	if err != nil {
		return nil, err
	}
	maxBody := cfg.MaxBody
	if maxBody == 0 {
		maxBody = DefaultMaxBody
	}
	return &Service{
		store: st, engine: eng, maxBody: maxBody,
		tracer: tracer, ring: ring, events: events,
	}, nil
}

// Store exposes the service's state store (tests, in-process harness).
func (s *Service) Store() *state.Store { return s.store }

// Engine exposes the service's scheduling engine.
func (s *Service) Engine() *engine.Engine { return s.engine }

// Start launches the engine loop.
func (s *Service) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	s.started.Store(true)
	go func() {
		defer close(s.done)
		_ = s.engine.Run(ctx)
	}()
}

// BeginDrain flips the readiness probe to not-ready without stopping
// the engine: call it before shutting the HTTP listener down so load
// balancers stop routing while in-flight requests still complete.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Drain stops the engine loop and waits for in-flight steps to finish
// (engine.Run only returns after the current scheduling pass
// completes). Safe to call when Start was never invoked.
func (s *Service) Drain() {
	s.draining.Store(true)
	if s.cancel == nil {
		return
	}
	s.cancel()
	<-s.done
}

// Tick is one ingested sampling interval: usage percent per VM, in
// registered VM order.
type Tick struct {
	CPU []float64 `json:"cpu"`
	RAM []float64 `json:"ram"`
}

// SamplesRequest is the POST /v1/boxes/{id}/samples body. Box carries
// the box's static configuration; it is required on (and only
// consulted for) the first call for a box — re-announcements are
// idempotent, shape changes rejected.
type SamplesRequest struct {
	Box     *state.BoxMeta `json:"box,omitempty"`
	Samples []Tick         `json:"samples"`
}

// BatchEntry is one box's slice of a batched ingest body.
type BatchEntry struct {
	ID      string         `json:"id"`
	Box     *state.BoxMeta `json:"box,omitempty"`
	Samples []Tick         `json:"samples"`
}

// BatchRequest is the POST /v1/ingest body: samples for many boxes in
// one round trip.
type BatchRequest struct {
	Boxes []BatchEntry `json:"boxes"`
}

// BatchBoxResult reports one box's outcome inside a batch response:
// either the box's new sample total or the error that rejected its
// entry (other entries are unaffected — each box is all-or-nothing on
// its own).
type BatchBoxResult struct {
	Box   string `json:"box"`
	Total int    `json:"total,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/ingest response. Accepted counts
// ticks actually appended across all boxes.
type BatchResponse struct {
	Accepted int              `json:"accepted"`
	Failed   int              `json:"failed"`
	Boxes    []BatchBoxResult `json:"boxes"`
}

// ingestScratch holds the per-request state of the two ingest routes:
// the body buffer (reused for the response once the body is decoded),
// the wire decoder with its number arena, the decoded request whose
// slices the decoder refills in place, and the AppendBatch staging
// arrays. Pooling it means a steady-state request allocates nothing
// but the ids it has not seen at that position before. Everything the
// decoder hands out aliases this scratch (see wire.go): it must not be
// used after the scratch goes back to the pool.
type ingestScratch struct {
	buf      []byte
	dec      wireDecoder
	batch    BatchRequest
	samples  SamplesRequest
	cpu, ram [][]float64
	results  []BatchBoxResult
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// stage converts a box entry's ticks into the parallel cpu/ram arrays
// AppendBatch wants, reusing the scratch capacity.
func (sc *ingestScratch) stage(samples []Tick) (cpu, ram [][]float64) {
	sc.cpu, sc.ram = sc.cpu[:0], sc.ram[:0]
	for k := range samples {
		sc.cpu = append(sc.cpu, samples[k].CPU)
		sc.ram = append(sc.ram, samples[k].RAM)
	}
	return sc.cpu, sc.ram
}

// jsonError mirrors the actuator API's error convention.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// boxRoute splits /v1/boxes/{id}/{verb} and returns id, verb.
func boxRoute(path string) (string, string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/boxes/")
	if !ok {
		return "", "", false
	}
	id, verb, ok := strings.Cut(rest, "/")
	if !ok || id == "" || strings.Contains(verb, "/") {
		return "", "", false
	}
	return id, verb, true
}

// readBody reads the whole request body into sc.buf under the service's
// size cap: a declared Content-Length over the cap is refused before a
// byte is read, a longer chunked body trips http.MaxBytesReader; both
// are answered 413 with the JSON error convention. The buffer is sized
// once from Content-Length. Returns false after writing the error
// response.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request, sc *ingestScratch) bool {
	body := r.Body
	if s.maxBody > 0 {
		if r.ContentLength > s.maxBody {
			tooLarge(w, s.maxBody)
			return false
		}
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	buf := sc.buf[:0]
	// Content-Length is the client's claim: with the cap switched off it
	// still sizes no more than the default cap up front.
	if n := min(r.ContentLength, DefaultMaxBody); n >= int64(cap(buf)) {
		// One spare byte lets the final Read report EOF without a grow;
		// rounding up lets bodies of slightly different lengths share a
		// pooled buffer.
		buf = make([]byte, 0, (n+1+4095)&^4095)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == nil {
			continue
		}
		sc.buf = buf // keep the capacity whatever the outcome
		var tooBig *http.MaxBytesError
		switch {
		case err == io.EOF:
			return true
		case errors.As(err, &tooBig):
			tooLarge(w, tooBig.Limit)
		default:
			jsonError(w, http.StatusBadRequest, "bad body: %v", err)
		}
		return false
	}
}

func tooLarge(w http.ResponseWriter, limit int64) {
	jsonError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes: split the batch", limit)
}

// respond writes the response the handler built in sc.buf.
func respond(w http.ResponseWriter, sc *ingestScratch) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(sc.buf) // a client that hung up is not the handler's to report
}

// Handler routes the per-box streaming API:
//
//	POST /v1/boxes/{id}/samples  ingest usage ticks (registering the
//	                             box from the body's "box" meta on
//	                             first contact)
//	GET  /v1/boxes/{id}/plan     latest resize plan for the box
//	GET  /v1/boxes/{id}/whatif   dry-run actuation plan: what applying
//	                             the latest plan would write per VM
//	                             after policy rails, without touching
//	                             the backend
//	GET  /v1/boxes/{id}/debug    step state, last decision, forecast
//	                             scorecard, recent events and the
//	                             last step's span tree
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, verb, ok := boxRoute(r.URL.Path)
		if !ok {
			jsonError(w, http.StatusNotFound, "unknown route %s", r.URL.Path)
			return
		}
		switch verb {
		case "samples":
			if r.Method != http.MethodPost {
				jsonError(w, http.StatusMethodNotAllowed, "samples is POST-only")
				return
			}
			s.handleSamples(w, r, id)
		case "plan":
			if r.Method != http.MethodGet {
				jsonError(w, http.StatusMethodNotAllowed, "plan is GET-only")
				return
			}
			s.handlePlan(w, id)
		case "whatif":
			if r.Method != http.MethodGet {
				jsonError(w, http.StatusMethodNotAllowed, "whatif is GET-only")
				return
			}
			s.handleWhatIf(w, r, id)
		case "debug":
			if r.Method != http.MethodGet {
				jsonError(w, http.StatusMethodNotAllowed, "debug is GET-only")
				return
			}
			s.handleDebug(w, id)
		default:
			jsonError(w, http.StatusNotFound, "unknown route %s", r.URL.Path)
		}
	})
}

// IngestHandler serves POST /v1/ingest: samples for many boxes in one
// body, each box all-or-nothing with per-box error reporting.
func (s *Service) IngestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			jsonError(w, http.StatusMethodNotAllowed, "ingest is POST-only")
			return
		}
		s.handleIngest(w, r)
	})
}

// register applies a request's optional box meta, reporting the error
// through the given sink. urlID pins the box id the route named; for
// batch entries it is the entry's id field.
func (s *Service) register(meta *state.BoxMeta, id string) (int, error) {
	if meta == nil {
		return 0, nil
	}
	m := *meta
	if m.ID == "" {
		m.ID = id
	}
	if m.ID != id {
		return http.StatusBadRequest, fmt.Errorf("body box id %q != entry id %q", m.ID, id)
	}
	if err := s.store.Register(m); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, state.ErrShapeMismatch) {
			status = http.StatusConflict
		}
		return status, fmt.Errorf("register: %w", err)
	}
	return 0, nil
}

// appendStatus maps a store append error to an HTTP status.
func appendStatus(err error) int {
	switch {
	case errors.Is(err, state.ErrUnknownBox):
		return http.StatusNotFound
	case errors.Is(err, state.ErrShapeMismatch), errors.Is(err, state.ErrBadSample):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleSamples(w http.ResponseWriter, r *http.Request, id string) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	req := &sc.samples
	if err := sc.dec.decodeSamples(sc.buf, req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if code, err := s.register(req.Box, id); err != nil {
		jsonError(w, code, "%v", err)
		return
	}
	cpu, ram := sc.stage(req.Samples)
	// The ingest span is the root of the step's trace: AppendBatchCtx
	// retains its ids on the box, and the scheduler parents the
	// resulting engine.step span under it.
	ctx, span := obs.StartSpan(obs.WithTracer(r.Context(), s.tracer), "serve.ingest")
	span.SetAttr("box", id)
	span.SetAttr("ticks", len(req.Samples))
	// AppendBatch validates every tick before the first ring write, so
	// a rejected request appends nothing and the client can retry the
	// whole batch without duplicating ticks.
	total, err := s.store.AppendBatchCtx(ctx, id, cpu, ram)
	span.End()
	if err != nil {
		if errors.Is(err, state.ErrUnknownBox) {
			jsonError(w, http.StatusNotFound,
				"box %q not registered: include \"box\" meta in the first request", id)
			return
		}
		jsonError(w, appendStatus(err), "%v", err)
		return
	}
	sc.buf = appendSamplesResponse(sc.buf[:0], id, total, len(req.Samples))
	respond(w, sc)
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	if err := sc.dec.decodeBatch(sc.buf, &sc.batch); err != nil {
		jsonError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	boxes := sc.batch.Boxes
	ingestBatchSize.Observe(float64(len(boxes)))
	// One ingest span per batch request; every appended box adopts it
	// as the parent of its next engine step.
	ctx, span := obs.StartSpan(obs.WithTracer(r.Context(), s.tracer), "serve.ingest")
	span.SetAttr("boxes", len(boxes))
	defer span.End()
	sc.results = sc.results[:0]
	accepted, failed := 0, 0
	for i := range boxes {
		e := &boxes[i]
		res := BatchBoxResult{Box: e.ID}
		switch {
		case e.ID == "":
			res.Error = "entry missing box id"
		default:
			if _, err := s.register(e.Box, e.ID); err != nil {
				res.Error = err.Error()
				break
			}
			cpu, ram := sc.stage(e.Samples)
			total, err := s.store.AppendBatchCtx(ctx, e.ID, cpu, ram)
			if err != nil {
				res.Error = err.Error()
				break
			}
			res.Total = total
			accepted += len(e.Samples)
		}
		if res.Error != "" {
			failed++
		}
		sc.results = append(sc.results, res)
	}
	// Per-box outcomes, not a request-level verdict: one bad entry
	// must not force a retry of its healthy neighbours. The body is
	// fully decoded (ids copied out, values in the arena), so its
	// buffer carries the response.
	sc.buf = appendBatchResponse(sc.buf[:0], accepted, failed, sc.results)
	respond(w, sc)
}

func (s *Service) handlePlan(w http.ResponseWriter, id string) {
	start := time.Now()
	defer func() { planLatency.Observe(obs.Since(start)) }()
	if _, err := s.store.Meta(id); err != nil {
		jsonError(w, http.StatusNotFound, "box %q not registered", id)
		return
	}
	plan, ok := s.engine.Plan(id)
	if !ok {
		jsonError(w, http.StatusNotFound,
			"box %q has no plan yet: the first plan needs %d samples", id, s.engine.Need(0))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(plan)
}

// handleWhatIf serves GET /v1/boxes/{id}/whatif: the per-VM actuation
// plan that applying the box's latest resize plan would produce —
// current limits, policy-railed targets, creates and rejections —
// computed against the configured backend with reads only. It answers
// "what would the controller do to my box right now" without risking
// a single write, including under Engine.DryRun.
func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request, id string) {
	b := s.engine.Backend()
	if b == nil {
		jsonError(w, http.StatusConflict,
			"no actuation backend configured: whatif needs engine Config.Backend")
		return
	}
	meta, err := s.store.Meta(id)
	if err != nil {
		jsonError(w, http.StatusNotFound, "box %q not registered", id)
		return
	}
	plan, ok := s.engine.Plan(id)
	if !ok {
		jsonError(w, http.StatusNotFound,
			"box %q has no plan yet: the first plan needs %d samples", id, s.engine.Need(0))
		return
	}
	vms := make([]string, len(meta.VMs))
	for i := range meta.VMs {
		vms[i] = meta.VMs[i].ID
	}
	cfg, _ := s.engine.PolicyConfig()
	wp := policy.WhatIf(r.Context(), b, cfg, id, vms, plan.CPUSizes, plan.RAMSizes)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(wp)
}
