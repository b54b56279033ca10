package obs

import (
	"context"
	"testing"
	"time"
)

// TestSpanNesting checks parent/child wiring: children share the
// root's trace id and point at their parent's span id, and siblings
// started from the same context level share a parent.
func TestSpanNesting(t *testing.T) {
	ring := NewRingExporter(16)
	tracer := NewTracer(ring)
	ctx := WithTracer(context.Background(), tracer)

	rctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(rctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	_, sibling := StartSpan(rctx, "sibling")
	sibling.End()
	root.End()

	spans := ring.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootS := byName["root"]
	if rootS.ParentID != "" {
		t.Errorf("root has parent %q", rootS.ParentID)
	}
	for _, name := range []string{"child", "sibling", "grandchild"} {
		if byName[name].TraceID != rootS.TraceID {
			t.Errorf("%s trace id %q, want root's %q", name, byName[name].TraceID, rootS.TraceID)
		}
	}
	if byName["child"].ParentID != rootS.SpanID {
		t.Errorf("child parent = %q, want %q", byName["child"].ParentID, rootS.SpanID)
	}
	if byName["sibling"].ParentID != rootS.SpanID {
		t.Errorf("sibling parent = %q, want %q", byName["sibling"].ParentID, rootS.SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent = %q, want child %q", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	if byName["grandchild"].DurationNS <= 0 {
		t.Error("grandchild has zero duration")
	}
	// Export order is end order: leaves first.
	if spans[0].Name != "grandchild" || spans[3].Name != "root" {
		t.Errorf("export order = %v", []string{spans[0].Name, spans[1].Name, spans[2].Name, spans[3].Name})
	}
}

// TestSpanNoTracer checks the disabled path: no tracer in context
// yields a nil span whose methods are all no-ops.
func TestSpanNoTracer(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("expected nil span without a tracer")
	}
	span.SetAttr("k", "v") // must not panic
	span.End()
	if SpanFrom(ctx) != nil {
		t.Error("context gained a span without a tracer")
	}
}

// TestSpanAttrsAndDoubleEnd checks attribute capture and that End is
// idempotent.
func TestSpanAttrsAndDoubleEnd(t *testing.T) {
	ring := NewRingExporter(4)
	tracer := NewTracer(ring)
	ctx := WithTracer(context.Background(), tracer)
	_, s := StartSpan(ctx, "op")
	s.SetAttr("box", "box-7")
	s.SetAttr("vms", 12)
	s.End()
	s.End()
	s.SetAttr("late", true) // after End: dropped
	spans := ring.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	box, _ := spans[0].Attrs.Get("box")
	vms, _ := spans[0].Attrs.Get("vms")
	if box != "box-7" || vms != 12 {
		t.Errorf("attrs = %v", spans[0].Attrs)
	}
	if _, ok := spans[0].Attrs.Get("late"); ok {
		t.Error("attr set after End leaked into export")
	}
}

// TestRingExporterWrap checks the ring keeps only the most recent
// spans, oldest first.
func TestRingExporterWrap(t *testing.T) {
	ring := NewRingExporter(2)
	for _, n := range []string{"a", "b", "c"} {
		ring.ExportSpan(SpanData{Name: n})
	}
	spans := ring.Spans()
	if len(spans) != 2 || spans[0].Name != "b" || spans[1].Name != "c" {
		t.Errorf("ring = %v", spans)
	}
	if ring.Total() != 3 {
		t.Errorf("total = %d, want 3", ring.Total())
	}
}
