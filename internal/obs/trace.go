package obs

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Exporter loss accounting: the ring drops its oldest span on every
// overwrite, the file exporter drops on write or rotation failure. One
// counter, labeled by exporter kind.
var (
	traceDropped = Default().CounterVec("atm_trace_dropped_total",
		"Finished spans dropped by exporters: ring overwrites of the oldest span, file write or rotation failures.",
		"exporter")
	ringSpansDropped = traceDropped.With("ring")
	fileSpansDropped = traceDropped.With("file")
)

// SpanData is the exported record of one finished span. Parent/child
// edges are carried by IDs so a flat JSON-lines dump reassembles into
// the span tree.
type SpanData struct {
	// TraceID groups every span of one logical operation (e.g. one
	// box-resize through the whole pipeline).
	TraceID string `json:"trace_id"`
	// SpanID identifies this span within the process.
	SpanID string `json:"span_id"`
	// ParentID is the enclosing span's SpanID; empty for roots.
	ParentID string `json:"parent_id,omitempty"`
	// Name is the operation name (e.g. "spatial.search").
	Name string `json:"name"`
	// Start is the span's wall-clock start time.
	Start time.Time `json:"start"`
	// DurationNS is the span's duration in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Attrs carries span attributes (box id, series count, ...).
	Attrs Attrs `json:"attrs,omitempty"`
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// Attrs is a span's attribute list in set order. A flat pair slice,
// not a map: spans on the engine's hot loop carry a handful of
// attributes, and a small slice costs one allocation where a map costs
// several plus per-key hashing. It still reads and writes as a JSON
// object, so exported span dumps are unchanged.
type Attrs []Attr

// MarshalJSON renders the attribute list as a JSON object in set
// order.
func (a Attrs) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16*len(a)+2)
	buf = append(buf, '{')
	for i := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(a[i].Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a[i].Value)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON accepts a JSON object (key order is preserved as far
// as encoding/json reports it — i.e. not at all — which is fine for
// consumers that only Get by key or render sorted).
func (a *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	*a = out
	return nil
}

// Exporter receives finished spans. Implementations must be safe for
// concurrent use: spans end on whatever goroutine ran the work.
type Exporter interface {
	ExportSpan(SpanData)
}

// Tracer creates spans and fans finished spans out to its exporters.
// A nil *Tracer is valid and produces no-op spans, so instrumented
// code never branches on "is tracing on".
type Tracer struct {
	exporters []Exporter
	ids       atomic.Uint64
}

// NewTracer returns a tracer exporting to the given exporters.
func NewTracer(exporters ...Exporter) *Tracer {
	return &Tracer{exporters: exporters}
}

func (t *Tracer) nextID() string {
	// Fixed-width hex without fmt: id generation sits on the span hot
	// path, and Sprintf's reflection costs show up at fleet step rates.
	var buf [16]byte
	id := t.ids.Add(1)
	for i := 15; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// Span is one in-flight operation. All methods are safe on a nil
// receiver (the no-tracer case) and after End (later calls are
// dropped).
type Span struct {
	tracer *Tracer

	mu    sync.Mutex
	data  SpanData
	start time.Time // monotonic-clock anchor for the duration
	ended bool
}

// ctxKey keys the tracer and current span in a context.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying the tracer; StartSpan calls
// under it produce real spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan begins a span named name under the context's current span
// (a root span if there is none) and returns a derived context
// carrying the new span. Without a tracer in the context it returns
// the context unchanged and a nil span, whose methods are all no-ops —
// tracing costs one context lookup when disabled.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, start: time.Now()}
	s.data.Name = name
	s.data.Start = s.start
	s.data.SpanID = t.nextID()
	if parent := SpanFrom(ctx); parent != nil {
		parent.mu.Lock()
		s.data.TraceID = parent.data.TraceID
		s.data.ParentID = parent.data.SpanID
		parent.mu.Unlock()
	} else {
		s.data.TraceID = t.nextID()
	}
	return context.WithValue(ctx, spanKey, s), s
}

// LinkedSpan starts a standalone span for cross-request propagation:
// it adopts the given trace id with parentID as its parent edge —
// linking, say, an engine step to the ingest request whose samples made
// the box ready, even though the two ran on different goroutines at
// different times — or opens a fresh trace when traceID is empty. It
// hangs nothing off a context, so hot paths pay no context
// allocations. Nil tracers return nil spans, whose methods are all
// no-ops.
func (t *Tracer) LinkedSpan(name, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, start: time.Now()}
	s.data.Name = name
	s.data.Start = s.start
	s.data.SpanID = t.nextID()
	if traceID == "" {
		s.data.TraceID = t.nextID()
	} else {
		s.data.TraceID = traceID
		s.data.ParentID = parentID
	}
	return s
}

// TraceID returns the span's trace id ("" on a nil span). Immutable
// after StartSpan, so no lock is needed.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's id ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// SetAttr attaches an attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		// Pre-size for the typical attribute count so the hot step path
		// pays one allocation, not map construction plus growth.
		s.data.Attrs = make(Attrs, 0, 4)
	}
	for i := range s.data.Attrs {
		if s.data.Attrs[i].Key == key {
			s.data.Attrs[i].Value = value
			return
		}
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
}

// End finishes the span and exports it. Safe to call once; later calls
// are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationNS = int64(time.Since(s.start))
	data := s.data
	tracer := s.tracer
	s.mu.Unlock()
	for _, e := range tracer.exporters {
		e.ExportSpan(data)
	}
}

// RingExporter keeps the most recent finished spans in a fixed-size
// ring buffer — the in-memory view a debugging session or test reads
// back.
type RingExporter struct {
	mu      sync.Mutex
	buf     []SpanData
	next    int
	total   int
	dropped int
}

// NewRingExporter returns a ring holding up to capacity spans
// (capacity < 1 is clamped to 1).
func NewRingExporter(capacity int) *RingExporter {
	if capacity < 1 {
		capacity = 1
	}
	return &RingExporter{buf: make([]SpanData, capacity)}
}

// ExportSpan implements Exporter. Once the ring is full every new span
// overwrites the oldest retained one; the overwrite is counted as a
// drop (atm_trace_dropped_total{exporter="ring"}).
func (r *RingExporter) ExportSpan(s SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total >= len(r.buf) {
		r.dropped++
		ringSpansDropped.Inc()
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// Trace returns the retained spans of one trace, oldest first — the
// span tree the debug endpoint renders for a published plan.
func (r *RingExporter) Trace(traceID string) []SpanData {
	if traceID == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > len(r.buf) {
		n = len(r.buf)
	}
	var out []SpanData
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		if s := &r.buf[(start+i)%len(r.buf)]; s.TraceID == traceID {
			out = append(out, *s)
		}
	}
	return out
}

// Total returns how many spans were ever exported to the ring.
func (r *RingExporter) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many retained spans were overwritten before
// anyone read them.
func (r *RingExporter) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DefaultSpanFileMax bounds a FileSpanExporter segment at 64 MiB
// before rotation when the caller does not choose a cap.
const DefaultSpanFileMax = 64 << 20

// FileSpanExporter writes spans as JSON lines to a file with
// size-bounded rotation: when the active segment would exceed the
// byte cap it is renamed to path+".1" (replacing the previous rotated
// segment) and a fresh segment starts, so disk is bounded at ~2x the
// cap. Spans lost to write or rotation failures are counted
// (atm_trace_dropped_total{exporter="file"}), not retried.
type FileSpanExporter struct {
	mu   sync.Mutex
	path string
	max  int64
	f    *os.File
	size int64
}

// NewFileSpanExporter opens (truncating) path for span output, rotating
// at maxBytes per segment (maxBytes <= 0 selects DefaultSpanFileMax).
func NewFileSpanExporter(path string, maxBytes int64) (*FileSpanExporter, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSpanFileMax
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileSpanExporter{path: path, max: maxBytes, f: f}, nil
}

// ExportSpan implements Exporter.
func (e *FileSpanExporter) ExportSpan(s SpanData) {
	line, err := json.Marshal(s)
	if err != nil {
		fileSpansDropped.Inc()
		return
	}
	line = append(line, '\n')
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		fileSpansDropped.Inc()
		return
	}
	if e.size > 0 && e.size+int64(len(line)) > e.max {
		e.rotateLocked()
	}
	n, err := e.f.Write(line)
	e.size += int64(n)
	if err != nil {
		fileSpansDropped.Inc()
	}
}

// rotateLocked renames the active segment to path+".1" and starts a
// fresh one. On failure the active segment stays open (the current
// span still lands; the size bound is temporarily exceeded rather than
// losing data silently); when no segment can be opened, every later
// span is a counted drop.
func (e *FileSpanExporter) rotateLocked() {
	// A failed close or rename changes nothing the exporter does next:
	// the fresh segment below is opened either way, and a write to a
	// broken one is a counted drop.
	_ = e.f.Close()
	_ = os.Rename(e.path, e.path+".1")
	f, err := os.Create(e.path)
	if err != nil {
		// Could not start a fresh segment: try to keep the old handle
		// path alive by reopening in append mode; give up on failure.
		f, err = os.OpenFile(e.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			e.f = nil
			return
		}
	}
	e.f = f
	e.size = 0
}

// Close flushes and closes the active segment. Spans exported after
// Close are counted as dropped.
func (e *FileSpanExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f == nil {
		return nil
	}
	err := e.f.Close()
	e.f = nil
	return err
}
