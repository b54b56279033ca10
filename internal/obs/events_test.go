package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEventLogRingTail(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		box := "a"
		if i%2 == 1 {
			box = "b"
		}
		l.Publish(Event{Type: "plan", Box: box, Step: i})
	}
	all := l.Tail(0, "")
	if len(all) != 4 {
		t.Fatalf("tail kept %d events, want ring capacity 4", len(all))
	}
	// Oldest first, and only the newest 4 survive (steps 2..5).
	for i, ev := range all {
		if ev.Step != i+2 {
			t.Fatalf("tail[%d].Step = %d, want %d", i, ev.Step, i+2)
		}
		if ev.Time.IsZero() {
			t.Fatalf("tail[%d] missing publish timestamp", i)
		}
	}
	onlyB := l.Tail(0, "b")
	for _, ev := range onlyB {
		if ev.Box != "b" {
			t.Fatalf("box filter leaked event for %q", ev.Box)
		}
	}
	if len(onlyB) != 2 {
		t.Fatalf("box filter kept %d events, want 2", len(onlyB))
	}
	if last := l.Tail(1, ""); len(last) != 1 || last[0].Step != 5 {
		t.Fatalf("Tail(1) = %+v, want newest event (step 5)", last)
	}
	if l.Total() != 6 {
		t.Fatalf("Total = %d, want 6", l.Total())
	}
}

func TestEventLogSinkWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(8)
	l.AttachSink(&buf)
	l.Publish(Event{Type: "plan", Box: "box-1", Reason: "cold_start", Research: true})
	l.Publish(Event{Type: "evicted", Box: "box-2"})
	l.Close()

	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line is not JSON: %v (%s)", err, sc.Text())
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2", len(lines))
	}
	if lines[0].Box != "box-1" || lines[0].Reason != "cold_start" || !lines[0].Research {
		t.Fatalf("sink line 0 = %+v", lines[0])
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d events on a fast sink", l.Dropped())
	}
	// Publishing after Close still lands on the ring, without panicking
	// on the closed sink channel.
	l.Publish(Event{Type: "plan", Box: "box-3"})
	if got := l.Tail(1, ""); len(got) != 1 || got[0].Box != "box-3" {
		t.Fatalf("post-close publish missing from ring: %+v", got)
	}
}

func TestEventLogConcurrentPublishAndClose(t *testing.T) {
	l := NewEventLog(16)
	l.AttachSink(io_discard{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Publish(Event{Type: "plan", Step: i})
			}
		}()
	}
	l.Close() // races the publishers by design: must not panic
	wg.Wait()
	if l.Total() != 800 {
		t.Fatalf("published %d, want 800", l.Total())
	}
}

// io_discard avoids importing io just for Discard in this test file.
type io_discard struct{}

func (io_discard) Write(p []byte) (int, error) { return len(p), nil }

func TestLinkedSpanAdoptsTrace(t *testing.T) {
	ring := NewRingExporter(16)
	tr := NewTracer(ring)
	ctx := WithTracer(context.Background(), tr)

	_, root := StartSpan(ctx, "serve.ingest")
	rootTrace, rootSpan := root.TraceID(), root.SpanID()
	if rootTrace == "" || rootSpan == "" {
		t.Fatal("root span has empty ids")
	}
	root.End()

	// A later, unrelated span adopts the recorded ids.
	linked := tr.LinkedSpan("engine.step", rootTrace, rootSpan)
	if linked.TraceID() != rootTrace {
		t.Fatalf("linked trace = %q, want %q", linked.TraceID(), rootTrace)
	}
	linked.End()

	spans := ring.Trace(rootTrace)
	if len(spans) != 2 {
		t.Fatalf("Trace returned %d spans, want 2", len(spans))
	}
	if spans[1].ParentID != rootSpan {
		t.Fatalf("linked span parent = %q, want %q", spans[1].ParentID, rootSpan)
	}

	// Empty trace id degrades to a fresh root.
	fresh := tr.LinkedSpan("engine.step", "", "")
	if fresh.TraceID() == rootTrace || fresh.TraceID() == "" {
		t.Fatalf("fresh linked span trace = %q", fresh.TraceID())
	}
	fresh.End()

	// No tracer: nil span, all methods safe.
	var none *Span = (*Tracer)(nil).LinkedSpan("x", rootTrace, rootSpan)
	if none != nil {
		t.Fatal("expected nil span without a tracer")
	}
	if none.TraceID() != "" || none.SpanID() != "" {
		t.Fatal("nil span ids must be empty")
	}
	none.End()
}

func TestRingExporterCountsOverwrites(t *testing.T) {
	r := NewRingExporter(2)
	for i := 0; i < 5; i++ {
		r.ExportSpan(SpanData{TraceID: "t", SpanID: "s"})
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestFileSpanExporterRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	// Cap small enough that a handful of spans forces a rotation.
	e, err := NewFileSpanExporter(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	dropped0 := fileSpansDropped.Value()
	for i := 0; i < 20; i++ {
		e.ExportSpan(SpanData{TraceID: "0123456789abcdef", SpanID: "fedcba9876543210", Name: "core.box"})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if d := fileSpansDropped.Value() - dropped0; d != 0 {
		t.Fatalf("dropped %v spans on a healthy disk", d)
	}
	active, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("expected rotated segment: %v", err)
	}
	if len(active) > 256+128 || len(rotated) > 256+128 {
		t.Fatalf("segments exceed the cap: active=%d rotated=%d", len(active), len(rotated))
	}
	// Every line in both segments is valid JSON, none torn by rotation.
	total := 0
	for _, blob := range [][]byte{rotated, active} {
		sc := bufio.NewScanner(bytes.NewReader(blob))
		for sc.Scan() {
			var s SpanData
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("torn span line %q: %v", sc.Text(), err)
			}
			total++
		}
	}
	// Rotation replaces .1, so only the last two segments survive; the
	// exporter never tears a line and the retained count is positive.
	if total == 0 {
		t.Fatal("no spans retained across rotation")
	}
	// Exporting after Close is a counted drop, not a crash.
	e.ExportSpan(SpanData{Name: "late"})
	if d := fileSpansDropped.Value() - dropped0; d != 1 {
		t.Fatalf("post-close export not counted: dropped=%v", d)
	}
}

func TestRuntimeMetricsScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"atm_go_goroutines",
		"atm_go_heap_inuse_bytes",
		"atm_go_heap_sys_bytes",
		"atm_go_gc_runs_total",
		"atm_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Fatalf("scrape missing %s:\n%s", name, out)
		}
	}
	// Goroutine gauge carries a live value.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "atm_go_goroutines ") {
			if strings.TrimPrefix(line, "atm_go_goroutines ") == "0" {
				t.Fatalf("goroutine gauge is zero: %s", line)
			}
			return
		}
	}
	t.Fatal("no atm_go_goroutines sample")
}
