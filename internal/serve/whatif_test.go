package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"atm/internal/actuator"
	"atm/internal/actuator/policy"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/spatial"
)

// whatIfService builds a dry-run service over a counting registry
// backend with a CPU clamp rail, so the whatif route has a backend to
// read and rails to report.
func whatIfService(t *testing.T, maxCPU float64) (*Service, *countingBackend) {
	t.Helper()
	spd := 8
	reg := actuator.NewRegistry()
	cb := &countingBackend{Backend: reg}
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
		Backend:       cb,
		Policy:        &policy.Config{Rules: []policy.Rule{{Match: "*", MaxCPUGHz: maxCPU}}},
		DryRun:        true,
	}
	svc, err := New(Config{
		History: 2 * (cfg.Core.TrainWindows + cfg.Core.Horizon),
		Shards:  3,
		Engine:  cfg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc, cb
}

func getPath(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w, w.Body.Bytes()
}

// TestWhatIfRoute drives a box to its first plan under -dry-run and
// asks the whatif route what applying it would do: one row per VM,
// clamp violations surfaced, and — the point of dry runs — zero writes
// on the backend from ingest through whatif response.
func TestWhatIfRoute(t *testing.T) {
	const maxCPU = 0.5
	svc, cb := whatIfService(t, maxCPU)
	const vms = 2
	m := boxMeta("b1", vms)
	need := svc.Engine().Need(0)
	if w, body := postJSON(t, svc.IngestHandler(), "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
		{ID: "b1", Box: &m, Samples: ticks(vms, need, 50)},
	}}); w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, body)
	}
	svc.Engine().Sync(context.Background())
	plan, ok := svc.Engine().Plan("b1")
	if !ok {
		t.Fatal("no plan after ingest + sync")
	}

	w, body := getPath(t, svc.Handler(), "/v1/boxes/b1/whatif")
	if w.Code != http.StatusOK {
		t.Fatalf("whatif status %d: %s", w.Code, body)
	}
	var wp policy.Plan
	if err := json.Unmarshal(body, &wp); err != nil {
		t.Fatalf("decode whatif: %v\n%s", err, body)
	}
	if wp.Box != "b1" || wp.Backend.Name != "registry" || wp.Mode != policy.ModeClamp {
		t.Fatalf("plan header = box %q backend %q mode %q", wp.Box, wp.Backend.Name, wp.Mode)
	}
	if len(wp.Rows) != vms || wp.Writes != vms || wp.Rejects != 0 {
		t.Fatalf("rows=%d writes=%d rejects=%d, want %d/%d/0", len(wp.Rows), wp.Writes, wp.Rejects, vms, vms)
	}
	for i, row := range wp.Rows {
		if row.VM != m.VMs[i].ID {
			t.Errorf("row %d: vm %q, want %q", i, row.VM, m.VMs[i].ID)
		}
		// Nothing was ever written (dry-run), so every group is a create.
		if row.Action != policy.ActionCreate || row.Current != nil {
			t.Errorf("row %d: action %q current %v, want create of a fresh group", i, row.Action, row.Current)
		}
		if row.Applied.CPUGHz > maxCPU {
			t.Errorf("row %d: applied cpu %v exceeds rail %v", i, row.Applied.CPUGHz, maxCPU)
		}
		if plan.CPUSizes[i] > maxCPU && len(row.Violations) == 0 {
			t.Errorf("row %d: clamped write reported no violations", i)
		}
	}
	if n := cb.writes.Load(); n != 0 {
		t.Fatalf("backend saw %d writes across ingest+whatif, want 0", n)
	}
	if cb.reads.Load() == 0 {
		t.Fatal("whatif issued no reads — did it consult the backend?")
	}
}

// TestWhatIfRouteErrors pins the route's failure modes: no backend
// configured, unknown box, no plan yet, wrong method.
func TestWhatIfRouteErrors(t *testing.T) {
	// A plain service (no Backend) must refuse with 409.
	plain := testService(t, 0)
	if w, body := getPath(t, plain.Handler(), "/v1/boxes/b1/whatif"); w.Code != http.StatusConflict {
		t.Errorf("no-backend whatif status %d: %s", w.Code, body)
	}

	svc, _ := whatIfService(t, 0.5)
	h := svc.Handler()
	if w, _ := getPath(t, h, "/v1/boxes/ghost/whatif"); w.Code != http.StatusNotFound {
		t.Errorf("unknown box status %d", w.Code)
	}
	// Registered but not enough samples for a plan.
	m := boxMeta("b2", 1)
	if w, body := postJSON(t, svc.IngestHandler(), "/v1/ingest", BatchRequest{Boxes: []BatchEntry{
		{ID: "b2", Box: &m, Samples: ticks(1, 1, 5)},
	}}); w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, body)
	}
	if w, _ := getPath(t, h, "/v1/boxes/b2/whatif"); w.Code != http.StatusNotFound {
		t.Errorf("plan-less box status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/boxes/b2/whatif", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST whatif status %d", rec.Code)
	}
}

// countingBackend counts the reads and writes that reach the wrapped
// backend; a what-if pass over it must leave writes at zero.
type countingBackend struct {
	actuator.Backend
	reads, writes atomic.Int64
}

func (c *countingBackend) SetLimits(ctx context.Context, id string, l actuator.Limits) error {
	c.writes.Add(1)
	return c.Backend.SetLimits(ctx, id, l)
}

func (c *countingBackend) GetLimits(ctx context.Context, id string) (actuator.Limits, error) {
	c.reads.Add(1)
	return c.Backend.GetLimits(ctx, id)
}

func (c *countingBackend) DeleteGroup(ctx context.Context, id string) error {
	c.writes.Add(1)
	return c.Backend.DeleteGroup(ctx, id)
}
