package state

import (
	"context"

	"atm/internal/obs"
)

// AppendBatchCtx is AppendBatch with trace propagation: when ctx
// carries an active obs span (the server's per-request ingest span),
// its trace and span ids are retained on the box so the scheduler can
// link the next engine step back to the ingest that made the box dirty.
func (s *Store) AppendBatchCtx(ctx context.Context, id string, cpu, ram [][]float64) (int, error) {
	total, err := s.AppendBatch(id, cpu, ram)
	if err == nil && len(cpu) > 0 {
		s.adoptSpan(ctx, id)
	}
	return total, err
}

// adoptSpan records the context's span identity on the box, if any.
func (s *Store) adoptSpan(ctx context.Context, id string) {
	span := obs.SpanFrom(ctx)
	if span == nil {
		return
	}
	tid, sid := span.TraceID(), span.SpanID()
	if tid == "" {
		return
	}
	_, bs, err := s.box(id)
	if err != nil {
		return
	}
	bs.mu.Lock()
	bs.traceID, bs.spanID = tid, sid
	bs.mu.Unlock()
}

// IngestTrace returns the trace and span ids of the ingest span that
// last appended to the box (both empty when the box was never appended
// under a tracer).
func (s *Store) IngestTrace(id string) (traceID, spanID string, err error) {
	_, bs, err := s.box(id)
	if err != nil {
		return "", "", err
	}
	bs.mu.Lock()
	traceID, spanID = bs.traceID, bs.spanID
	bs.mu.Unlock()
	return traceID, spanID, nil
}
