package obs

// Read accessors only the tests need: the production surfaces are the
// debug endpoint's per-trace view (RingExporter.Trace) and the
// atm_trace_dropped_total counter.

// Get returns the value set for key.
func (a Attrs) Get(key string) (any, bool) {
	for i := range a {
		if a[i].Key == key {
			return a[i].Value, true
		}
	}
	return nil, false
}

// Spans returns the retained spans, oldest first.
func (r *RingExporter) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]SpanData, 0, n)
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
