package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// ingestAndSync pushes enough samples for the first plan and runs a
// synchronous engine pass.
func ingestAndSync(t *testing.T, svc *Service, id string) {
	t.Helper()
	m := boxMeta(id, 2)
	need := svc.Engine().Need(0)
	w, body := postJSON(t, svc.IngestHandler(), "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
		{ID: id, Box: &m, Samples: ticks(2, need, 5)},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, body)
	}
	svc.Engine().Sync(context.Background())
}

func TestReadyzLifecycle(t *testing.T) {
	svc := testService(t, 0)
	readyz := svc.ReadyzHandler()

	get := func() (int, map[string]any) {
		w := httptest.NewRecorder()
		readyz.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var m map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return w.Code, m
	}

	if code, m := get(); code != http.StatusServiceUnavailable || m["ready"] != false {
		t.Fatalf("not-started readyz = %d %v, want 503 not-ready", code, m)
	}

	svc.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ok, _ := svc.Ready(); ok {
			break
		}
		if time.Now().After(deadline) {
			_, reason := svc.Ready()
			t.Fatalf("service never became ready: %s", reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, m := get(); code != http.StatusOK || m["ready"] != true {
		t.Fatalf("running readyz = %d %v, want 200 ready", code, m)
	}

	// BeginDrain flips readiness before the engine stops.
	svc.BeginDrain()
	if code, m := get(); code != http.StatusServiceUnavailable || m["reason"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", code, m)
	}
	svc.Drain()
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("drained readyz = %d, want 503", code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	svc := testService(t, 0)
	ingestAndSync(t, svc, "b1")

	w := httptest.NewRecorder()
	svc.EventsHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/events?box=b1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("events status %d: %s", w.Code, w.Body)
	}
	var resp EventsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("events body: %v", err)
	}
	if resp.Total == 0 || len(resp.Events) == 0 {
		t.Fatalf("no events after a planned step: %+v", resp)
	}
	sawPlan := false
	for _, ev := range resp.Events {
		if ev.Box != "b1" {
			t.Fatalf("box filter leaked %q", ev.Box)
		}
		if ev.Type == "plan" {
			sawPlan = true
			if ev.Reason == "" || ev.TraceID == "" {
				t.Fatalf("plan event missing reason/trace: %+v", ev)
			}
		}
	}
	if !sawPlan {
		t.Fatal("no plan event for the planned box")
	}

	// n= validation: anything that is not a positive integer is a 400
	// with a JSON error body; valid values (and an absent n) are 200.
	for _, tc := range []struct {
		n    string
		code int
	}{
		{"zero", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"1.5", http.StatusBadRequest},
		{"", http.StatusOK},
		{"1", http.StatusOK},
		{"500", http.StatusOK},
	} {
		target := "/v1/events"
		if tc.n != "" {
			target += "?n=" + tc.n
		}
		w = httptest.NewRecorder()
		svc.EventsHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != tc.code {
			t.Fatalf("n=%q status = %d, want %d", tc.n, w.Code, tc.code)
		}
		if tc.code == http.StatusBadRequest {
			var body map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
				t.Fatalf("n=%q error body = %q (err %v), want JSON error", tc.n, w.Body, err)
			}
		}
	}
}

func TestDebugEndpoint(t *testing.T) {
	svc := testService(t, 0)
	ingestAndSync(t, svc, "b1")
	h := svc.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/boxes/b1/debug", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("debug status %d: %s", w.Code, w.Body)
	}
	var resp DebugResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("debug body: %v", err)
	}
	// Its plan out, the box has run the next step's model phase already.
	if resp.Box != "b1" || resp.Steps == 0 || resp.Plan == nil || resp.State != "prepared" {
		t.Fatalf("debug missing step state: %+v", resp.BoxDebug)
	}
	if resp.Decision.Reason == "" {
		t.Fatalf("debug missing decision: %+v", resp.BoxDebug)
	}
	if resp.Scorecard == nil || resp.Scorecard.TicketsRealized < 0 {
		t.Fatalf("debug missing scorecard: %+v", resp.Scorecard)
	}
	if len(resp.Events) == 0 {
		t.Fatal("debug missing event tail")
	}
	// The span tree matches the plan's trace id end-to-end: the ingest
	// root span and the engine step under it.
	if resp.Plan.TraceID == "" || len(resp.Spans) == 0 {
		t.Fatalf("debug missing span tree (trace %q, %d spans)", resp.Plan.TraceID, len(resp.Spans))
	}
	names := map[string]bool{}
	for _, s := range resp.Spans {
		if s.TraceID != resp.Plan.TraceID {
			t.Fatalf("span %s from foreign trace %s", s.Name, s.TraceID)
		}
		names[s.Name] = true
	}
	if !names["serve.ingest"] || !names["engine.step"] {
		t.Fatalf("trace lacks ingest→step chain: %v", names)
	}

	// Unknown box is a 404; registered-but-unstepped box is an empty
	// 200 snapshot.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/boxes/ghost/debug", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown-box debug status = %d, want 404", w.Code)
	}
	m := boxMeta("b2", 1)
	if err := svc.Store().Register(m); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/boxes/b2/debug", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fresh-box debug status = %d, want 200", w.Code)
	}
}
