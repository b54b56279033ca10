package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/spatial"
	"atm/internal/state"
)

func testService(t *testing.T, maxBody int64) *Service {
	t.Helper()
	spd := 8
	cfg := engine.Config{
		Core: core.Config{
			Spatial:      spatial.Config{Method: spatial.MethodCBC},
			Temporal:     func() predict.Model { return &predict.SeasonalNaive{Period: spd} },
			TrainWindows: 2 * spd,
			Horizon:      spd,
			Threshold:    0.6,
			Epsilon:      0.1,
			Degraded:     true,
		},
		SamplesPerDay: spd,
	}
	svc, err := New(Config{
		History: 2 * (cfg.Core.TrainWindows + cfg.Core.Horizon),
		Shards:  3,
		Engine:  cfg,
		MaxBody: maxBody,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func boxMeta(id string, vms int) state.BoxMeta {
	m := state.BoxMeta{ID: id, CPUCapGHz: 10, RAMCapGB: 64}
	for v := 0; v < vms; v++ {
		m.VMs = append(m.VMs, state.VMMeta{
			ID: fmt.Sprintf("%s-vm%d", id, v), CPUCapGHz: 2, RAMCapGB: 8,
		})
	}
	return m
}

func ticks(vms, n int, base float64) []Tick {
	out := make([]Tick, n)
	for k := range out {
		out[k] = Tick{CPU: make([]float64, vms), RAM: make([]float64, vms)}
		for v := 0; v < vms; v++ {
			out[k].CPU[v] = base + float64(k)
			out[k].RAM[v] = base + float64(k)/2
		}
	}
	return out
}

// TestBoxRoute is the routing table test for the /v1/boxes/{id}/{verb}
// splitter.
func TestBoxRoute(t *testing.T) {
	for _, tc := range []struct {
		path     string
		id, verb string
		ok       bool
	}{
		{"/v1/boxes/b1/samples", "b1", "samples", true},
		{"/v1/boxes/b1/plan", "b1", "plan", true},
		{"/v1/boxes/b-weird.id/plan", "b-weird.id", "plan", true},
		{"/v1/boxes/b1/anything", "b1", "anything", true},
		{"/v1/boxes/", "", "", false},
		{"/v1/boxes/b1", "", "", false},
		{"/v1/boxes//plan", "", "", false},
		{"/v1/boxes/b1/plan/extra", "", "", false},
		{"/v1/ingest", "", "", false},
		{"/v2/boxes/b1/plan", "", "", false},
	} {
		id, verb, ok := boxRoute(tc.path)
		if id != tc.id || verb != tc.verb || ok != tc.ok {
			t.Errorf("boxRoute(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.path, id, verb, ok, tc.id, tc.verb, tc.ok)
		}
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w, w.Body.Bytes()
}

// TestIngestBatch pushes a mixed batch through /v1/ingest: two healthy
// boxes (one registering in-band), one unknown box and one shape
// error. The healthy entries land, the broken ones report per-box
// errors without poisoning their neighbours.
func TestIngestBatch(t *testing.T) {
	svc := testService(t, 0)
	h := svc.IngestHandler()
	m1, m2 := boxMeta("b1", 2), boxMeta("b2", 3)
	if err := svc.Store().Register(m1); err != nil {
		t.Fatal(err)
	}

	bad := ticks(2, 2, 0)
	bad[1].CPU = bad[1].CPU[:1] // tick 1 shape mismatch
	w, body := postJSON(t, h, "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
		{ID: "b1", Samples: ticks(2, 4, 1)},
		{ID: "b2", Box: &m2, Samples: ticks(3, 5, 2)},
		{ID: "ghost", Samples: ticks(1, 1, 0)},
		{ID: "b1", Samples: bad},
		{Samples: ticks(1, 1, 0)}, // missing id
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Accepted != 9 || resp.Failed != 3 {
		t.Fatalf("accepted=%d failed=%d, want 9/3: %s", resp.Accepted, resp.Failed, body)
	}
	if len(resp.Boxes) != 5 {
		t.Fatalf("results: %d entries, want 5", len(resp.Boxes))
	}
	for i, wantErr := range []bool{false, false, true, true, true} {
		if got := resp.Boxes[i].Error != ""; got != wantErr {
			t.Errorf("entry %d: error=%q, want error=%v", i, resp.Boxes[i].Error, wantErr)
		}
	}
	// The failing b1 entry appended nothing: total is still 4.
	if total, _ := svc.Store().Total("b1"); total != 4 {
		t.Errorf("b1 total = %d, want 4 (bad batch must be all-or-nothing)", total)
	}
	if total, _ := svc.Store().Total("b2"); total != 5 {
		t.Errorf("b2 total = %d, want 5", total)
	}
	if _, err := svc.Store().Total("ghost"); err == nil {
		t.Error("ghost box was created by a failed entry")
	}
}

// TestIngestScratchReuse replays a big-then-small-then-meta-less
// sequence through the handlers, so the pooled scratch (entries, tick
// slices, arena, body buffer) is reused, and checks nothing leaks
// between requests: no stale entries, samples, ids or box meta.
func TestIngestScratchReuse(t *testing.T) {
	svc := testService(t, 0)
	h := svc.IngestHandler()
	m := boxMeta("b1", 1)
	if err := svc.Store().Register(m); err != nil {
		t.Fatal(err)
	}
	post := func(name string, req BatchRequest) BatchResponse {
		t.Helper()
		w, body := postJSON(t, h, "/v1/ingest", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		return resp
	}
	// First request: a wide batch whose every entry registers a
	// three-VM box in-band and carries many ticks.
	entries := make([]BatchEntry, 8)
	for i := range entries {
		wide := boxMeta(fmt.Sprintf("wide%d", i), 3)
		entries[i] = BatchEntry{ID: wide.ID, Box: &wide, Samples: ticks(3, 6, float64(i))}
	}
	if resp := post("big", BatchRequest{Boxes: entries}); resp.Accepted != 48 || resp.Failed != 0 {
		t.Fatalf("big: %+v", resp)
	}
	// Second request: a single one-VM, one-tick entry. A stale-scratch
	// bug would surface extra entries, phantom samples or three-wide
	// ticks here.
	resp := post("small", BatchRequest{Boxes: []BatchEntry{{ID: "b1", Samples: ticks(1, 1, 99)}}})
	if len(resp.Boxes) != 1 || resp.Accepted != 1 || resp.Failed != 0 || resp.Boxes[0].Box != "b1" {
		t.Fatalf("scratch leak: %+v", resp)
	}
	// Third request: entries without meta, without samples, and one
	// unknown box. Stale meta from the first request would register
	// "ghost" (or re-announce wide0 under the wrong id); stale samples
	// would append to b1.
	resp = post("meta-less", BatchRequest{Boxes: []BatchEntry{
		{ID: "ghost", Samples: ticks(3, 2, 0)},
		{ID: "b1"},
		{ID: "wide0", Samples: ticks(3, 1, 7)},
	}})
	if resp.Accepted != 1 || resp.Failed != 1 || resp.Boxes[0].Error == "" || resp.Boxes[1].Total != 1 {
		t.Fatalf("meta-less: %+v", resp)
	}
	if _, err := svc.Store().Total("ghost"); err == nil {
		t.Error("stale box meta registered the ghost box")
	}
	for id, want := range map[string]int{"b1": 1, "wide0": 7, "wide7": 6} {
		if total, _ := svc.Store().Total(id); total != want {
			t.Errorf("%s total = %d, want %d", id, total, want)
		}
	}
	// The samples route shares the pool: a bare {"samples":null} after
	// all that must append nothing.
	w, body := postJSON(t, svc.Handler(), "/v1/boxes/wide1/samples", SamplesRequest{})
	if w.Code != http.StatusOK || !strings.Contains(string(body), `"accepted":0`) {
		t.Fatalf("empty samples: status %d: %s", w.Code, body)
	}
	if total, _ := svc.Store().Total("wide1"); total != 6 {
		t.Errorf("wide1 total = %d after an empty request, want 6", total)
	}
}

// TestSamplesNoPartialAppend is the regression test for the
// partial-append bug: a batch whose tick i has a bad shape must append
// nothing, so the client's retry after the 400 cannot duplicate ticks
// 0..i-1.
func TestSamplesNoPartialAppend(t *testing.T) {
	svc := testService(t, 0)
	h := svc.Handler()
	m := boxMeta("b1", 2)
	if err := svc.Store().Register(m); err != nil {
		t.Fatal(err)
	}
	bad := ticks(2, 5, 0)
	bad[3].RAM = bad[3].RAM[:1]
	w, body := postJSON(t, h, "/v1/boxes/b1/samples", SamplesRequest{Samples: bad})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, body)
	}
	if total, _ := svc.Store().Total("b1"); total != 0 {
		t.Fatalf("total = %d after rejected batch, want 0", total)
	}
	// The retry with the repaired batch lands exactly once.
	good := ticks(2, 5, 0)
	w, body = postJSON(t, h, "/v1/boxes/b1/samples", SamplesRequest{Samples: good})
	if w.Code != http.StatusOK {
		t.Fatalf("retry: status %d: %s", w.Code, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["accepted"].(float64) != 5 || out["total"].(float64) != 5 {
		t.Fatalf("retry response: %s", body)
	}
}

// TestMaxBody checks the configurable request-size cap returns 413
// with the JSON error convention on both ingest routes.
func TestMaxBody(t *testing.T) {
	svc := testService(t, 256)
	m := boxMeta("b1", 4)
	if err := svc.Store().Register(m); err != nil {
		t.Fatal(err)
	}
	huge := BatchRequest{Boxes: []BatchEntry{{ID: "b1", Samples: ticks(4, 64, 0)}}}
	for _, tc := range []struct {
		path string
		h    http.Handler
		body any
	}{
		{"/v1/ingest", svc.IngestHandler(), huge},
		{"/v1/boxes/b1/samples", svc.Handler(), SamplesRequest{Samples: ticks(4, 64, 0)}},
	} {
		w, body := postJSON(t, tc.h, tc.path, tc.body)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.path, w.Code)
		}
		var msg map[string]string
		if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
			t.Errorf("%s: 413 body not a JSON error: %s", tc.path, body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.path, ct)
		}
	}
	// Under the cap still works.
	w, body := postJSON(t, svc.Handler(), "/v1/boxes/b1/samples",
		SamplesRequest{Samples: ticks(4, 1, 0)})
	if w.Code != http.StatusOK {
		t.Errorf("small body: status %d: %s", w.Code, body)
	}

	raw, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	// A declared Content-Length over the cap is refused before a byte
	// of the body is read.
	unread := &countingReader{r: bytes.NewReader(raw)}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", unread)
	req.ContentLength = int64(len(raw))
	rec := httptest.NewRecorder()
	svc.IngestHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || unread.n != 0 {
		t.Errorf("declared length: status %d after reading %d bytes, want 413 after 0", rec.Code, unread.n)
	}
	var msg map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || !strings.Contains(msg["error"], "256 bytes") {
		t.Errorf("declared length: 413 body %s", rec.Body.Bytes())
	}
	// A chunked body declares nothing, so it trips MaxBytesReader: it is
	// read up to the cap, not beyond.
	chunked := &countingReader{r: bytes.NewReader(raw)}
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest", chunked)
	req.ContentLength = -1
	rec = httptest.NewRecorder()
	svc.IngestHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || chunked.n == 0 || chunked.n > 256+1 {
		t.Errorf("chunked: status %d after reading %d bytes, want 413 within the cap", rec.Code, chunked.n)
	}
	// A chunked body under the cap is served.
	small, _ := json.Marshal(SamplesRequest{Samples: ticks(4, 1, 0)})
	req = httptest.NewRequest(http.MethodPost, "/v1/boxes/b1/samples", &countingReader{r: bytes.NewReader(small)})
	req.ContentLength = -1
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("small chunked body: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// countingReader counts the bytes a handler pulled from a request body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestIngestRejectsBadSamples: a negative usage value (NaN and ±Inf
// cannot be written in JSON) is refused by the store's validation pass
// on both routes — 400 on the per-box route, a per-box error in a
// batch — and the request's other ticks are not appended.
func TestIngestRejectsBadSamples(t *testing.T) {
	svc := testService(t, 0)
	for _, id := range []string{"b1", "b2"} {
		if err := svc.Store().Register(boxMeta(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		cpu, ram float64
		ok       bool
	}{
		{"zero", 0, 0, true},
		{"above 100", 250, 1e9, true},
		{"negative cpu", -0.01, 5, false},
		{"negative ram", 5, -1e-300, false},
	} {
		bad := ticks(2, 3, 1)
		bad[1].CPU[1], bad[1].RAM[0] = tc.cpu, tc.ram
		before, _ := svc.Store().Total("b1")

		w, body := postJSON(t, svc.Handler(), "/v1/boxes/b1/samples", SamplesRequest{Samples: bad})
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[tc.ok]; w.Code != want {
			t.Errorf("%s: samples route status %d, want %d: %s", tc.name, w.Code, want, body)
		}
		if !tc.ok && !strings.Contains(string(body), "finite and non-negative") {
			t.Errorf("%s: samples route error does not name the rule: %s", tc.name, body)
		}

		w, body = postJSON(t, svc.IngestHandler(), "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
			{ID: "b1", Samples: bad},
			{ID: "b2", Samples: ticks(2, 1, 1)},
		}})
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil || w.Code != http.StatusOK {
			t.Fatalf("%s: batch status %d: %s", tc.name, w.Code, body)
		}
		if got := resp.Boxes[0].Error == ""; got != tc.ok || resp.Boxes[1].Error != "" {
			t.Errorf("%s: batch results %+v", tc.name, resp.Boxes)
		}
		want := before
		if tc.ok {
			want += 6 // three ticks on each route
		}
		if total, _ := svc.Store().Total("b1"); total != want {
			t.Errorf("%s: b1 total = %d, want %d (a refused request appends nothing)", tc.name, total, want)
		}
	}
}

// TestIngestFeedsEngine closes the loop: batched ingest marks boxes
// dirty, one engine pass plans them.
func TestIngestFeedsEngine(t *testing.T) {
	svc := testService(t, 0)
	h := svc.IngestHandler()
	m := boxMeta("b1", 2)
	need := svc.Engine().Need(0)
	w, body := postJSON(t, h, "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
		{ID: "b1", Box: &m, Samples: ticks(2, need, 5)},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, body)
	}
	svc.Engine().Sync(context.Background())
	if _, ok := svc.Engine().Plan("b1"); !ok {
		t.Fatal("no plan after batched ingest + sync")
	}
}

// TestIngestMethodAndBody covers the ingest handler's own error paths
// not reachable through the daemon mux tests.
func TestIngestMethodAndBody(t *testing.T) {
	svc := testService(t, 0)
	h := svc.IngestHandler()
	req := httptest.NewRequest(http.MethodDelete, "/v1/ingest", strings.NewReader(""))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", w.Code)
	}
}
