package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atm/internal/actuator"
	"atm/internal/core"
	"atm/internal/engine"
	"atm/internal/predict"
	"atm/internal/serve"
	"atm/internal/spatial"
	"atm/internal/state"
	"atm/internal/trace"
)

// testService builds a service with a cheap temporal model and an
// engine that is driven manually (no background loop), so the test is
// deterministic.
func testService(t *testing.T, backend actuator.Backend) (*serve.Service, int) {
	t.Helper()
	spd := 32
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
		Backend:       backend,
	}
	svc, err := serve.New(serve.Config{
		History: 2 * (cfg.Core.TrainWindows + cfg.Core.Horizon),
		Shards:  4,
		Engine:  cfg,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return svc, spd
}

func postSamples(t *testing.T, client *http.Client, url string, req serve.SamplesRequest) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestServeIngestAndPlan drives the streaming API end to end through
// the production mux: register + ingest a generated trace, run the
// engine synchronously, and read the resulting plan.
func TestServeIngestAndPlan(t *testing.T) {
	svc, _ := testService(t, nil)
	srv := httptest.NewServer(newHandler(actuator.NewRegistry(), svc, false, time.Now()))
	defer srv.Close()
	client := srv.Client()

	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 4, SamplesPerDay: 32, Seed: 11, GapFraction: 1e-9,
	})
	b := &tr.Boxes[0]
	meta := state.MetaOf(b)
	url := srv.URL + "/v1/boxes/" + b.ID + "/samples"
	planURL := srv.URL + "/v1/boxes/" + b.ID + "/plan"

	// Plan before any ingest: 404 for the unknown box.
	resp, err := client.Get(planURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan for unknown box: status %d, want 404", resp.StatusCode)
	}

	// Ingest without registration: 404 with a hint.
	code, out := postSamples(t, client, url, serve.SamplesRequest{
		Samples: []serve.Tick{{CPU: make([]float64, len(b.VMs)), RAM: make([]float64, len(b.VMs))}},
	})
	if code != http.StatusNotFound {
		t.Fatalf("unregistered ingest: status %d (%v), want 404", code, out)
	}

	// Register + ingest the whole trace in batches of 16 ticks.
	total := len(b.VMs[0].CPU)
	for from := 0; from < total; from += 16 {
		to := from + 16
		if to > total {
			to = total
		}
		req := serve.SamplesRequest{}
		if from == 0 {
			req.Box = &meta
		}
		for k := from; k < to; k++ {
			tk := serve.Tick{CPU: make([]float64, len(b.VMs)), RAM: make([]float64, len(b.VMs))}
			for v := range b.VMs {
				tk.CPU[v] = b.VMs[v].CPU[k]
				tk.RAM[v] = b.VMs[v].RAM[k]
			}
			req.Samples = append(req.Samples, tk)
		}
		code, out := postSamples(t, client, url, req)
		if code != http.StatusOK {
			t.Fatalf("ingest [%d,%d): status %d (%v)", from, to, code, out)
		}
		if from == 0 && out["total"].(float64) != float64(to) {
			t.Fatalf("ingest total = %v, want %d", out["total"], to)
		}
		if out["accepted"].(float64) != float64(to-from) {
			t.Fatalf("ingest accepted = %v, want %d", out["accepted"], to-from)
		}
	}

	// Re-announce with a different shape: 409.
	badMeta := meta
	badMeta.VMs = meta.VMs[:1]
	if code, _ := postSamples(t, client, url, serve.SamplesRequest{Box: &badMeta}); code != http.StatusConflict {
		t.Fatalf("shape-changing re-register: status %d, want 409", code)
	}

	// No engine pass has run yet: plan is still 404 (registered box).
	resp, err = client.Get(planURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan before engine pass: status %d, want 404", resp.StatusCode)
	}

	svc.Engine().Sync(context.Background())

	resp, err = client.Get(planURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d", resp.StatusCode)
	}
	var plan engine.Plan
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	if plan.Box != b.ID || len(plan.CPUSizes) != len(b.VMs) || len(plan.RAMSizes) != len(b.VMs) {
		t.Fatalf("plan shape: %+v", plan)
	}
	wantSteps := (total - svc.Engine().Need(0) + 32) / 32 // (total-T-H)/H + 1
	if plan.Step != wantSteps-1 {
		t.Errorf("plan step = %d, want %d", plan.Step, wantSteps-1)
	}

	// Engine gauges are on the shared /metrics surface.
	mresp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := mresp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	for _, want := range []string{
		"atm_engine_steps_total", "atm_engine_research_total",
		"atm_engine_ingest_lag_samples", "atm_state_samples_total",
		"atm_state_dirty_boxes", "atm_engine_pass_seconds",
		"atm_plan_serve_seconds",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeActuation checks -actuate wiring: plans land in the
// daemon's own cgroup registry.
func TestServeActuation(t *testing.T) {
	reg := actuator.NewRegistry()
	svc, _ := testService(t, reg)
	srv := httptest.NewServer(newHandler(reg, svc, false, time.Now()))
	defer srv.Close()

	tr := trace.Generate(trace.GenConfig{
		Boxes: 1, Days: 3, SamplesPerDay: 32, Seed: 19, GapFraction: 1e-9,
	})
	b := &tr.Boxes[0]
	meta := state.MetaOf(b)
	url := srv.URL + "/v1/boxes/" + b.ID + "/samples"

	req := serve.SamplesRequest{Box: &meta}
	for k := 0; k < len(b.VMs[0].CPU); k++ {
		tk := serve.Tick{CPU: make([]float64, len(b.VMs)), RAM: make([]float64, len(b.VMs))}
		for v := range b.VMs {
			tk.CPU[v] = b.VMs[v].CPU[k]
			tk.RAM[v] = b.VMs[v].RAM[k]
		}
		req.Samples = append(req.Samples, tk)
	}
	if code, out := postSamples(t, srv.Client(), url, req); code != http.StatusOK {
		t.Fatalf("ingest: status %d (%v)", code, out)
	}
	svc.Engine().Sync(context.Background())

	if _, ok := svc.Engine().Plan(b.ID); !ok {
		t.Fatal("no plan after sync")
	}
	ids := reg.Snapshot()
	if len(ids) != len(b.VMs) {
		t.Fatalf("registry has %d cgroups, want %d (one per VM)", len(ids), len(b.VMs))
	}
}

// TestServeBadRequests covers route and body validation through the
// production mux, including the batched /v1/ingest mount.
func TestServeBadRequests(t *testing.T) {
	svc, _ := testService(t, nil)
	srv := httptest.NewServer(newHandler(actuator.NewRegistry(), svc, false, time.Now()))
	defer srv.Close()
	client := srv.Client()

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad route", http.MethodGet, "/v1/boxes/", "", http.StatusNotFound},
		{"unknown verb", http.MethodGet, "/v1/boxes/b/limits", "", http.StatusNotFound},
		{"plan post", http.MethodPost, "/v1/boxes/b/plan", "{}", http.StatusMethodNotAllowed},
		{"samples get", http.MethodGet, "/v1/boxes/b/samples", "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/boxes/b/samples", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/boxes/b/samples", `{"nope": 1}`, http.StatusBadRequest},
		{"id mismatch", http.MethodPost, "/v1/boxes/b/samples",
			`{"box": {"id": "other", "vms": [{"id": "v"}]}}`, http.StatusBadRequest},
		{"ingest get", http.MethodGet, "/v1/ingest", "", http.StatusMethodNotAllowed},
		{"ingest bad json", http.MethodPost, "/v1/ingest", "{", http.StatusBadRequest},
		{"ingest unknown field", http.MethodPost, "/v1/ingest", `{"nope": 1}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestServiceDrain checks Start/Drain round-trips and is idempotent
// about a never-started service.
func TestServiceDrain(t *testing.T) {
	svc, _ := testService(t, nil)
	svc.Drain() // never started: no-op
	svc.Start()
	done := make(chan struct{})
	go func() { svc.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete")
	}
}

// TestServeConfigBuild pins how the actuation flags compose into the
// engine config: -actuate and -dry-run wire the registry in as a
// Backend, -policy loads rails from disk and refuses to stand alone.
func TestServeConfigBuild(t *testing.T) {
	base := serveConfig{train: 64, horizon: 32, spd: 32, threshold: 0.6, epsilon: 0.1}
	reg := actuator.NewRegistry()

	plain, err := base.build(reg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if plain.Engine.Backend != nil {
		t.Error("plain build wired an actuation target")
	}

	act := base
	act.actuate = true
	cfg, err := act.build(reg)
	if err != nil {
		t.Fatalf("build -actuate: %v", err)
	}
	if cfg.Engine.Backend == nil || cfg.Engine.DryRun {
		t.Error("-actuate should set Backend without DryRun")
	}

	dry := base
	dry.dryRun = true
	cfg, err = dry.build(reg)
	if err != nil {
		t.Fatalf("build -dry-run: %v", err)
	}
	if cfg.Engine.Backend == nil || !cfg.Engine.DryRun {
		t.Error("-dry-run should set Backend and DryRun")
	}

	pol := base
	pol.policyFile = filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(pol.policyFile,
		[]byte(`{"mode":"reject","rules":[{"match":"*","max_cpu_ghz":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pol.build(reg); err == nil {
		t.Error("-policy without -actuate/-dry-run accepted, want error")
	}
	pol.dryRun = true
	cfg, err = pol.build(reg)
	if err != nil {
		t.Fatalf("build -policy -dry-run: %v", err)
	}
	if cfg.Engine.Policy == nil || cfg.Engine.Policy.Mode != "reject" || len(cfg.Engine.Policy.Rules) != 1 {
		t.Errorf("policy not loaded: %+v", cfg.Engine.Policy)
	}

	bad := pol
	bad.policyFile = filepath.Join(t.TempDir(), "missing.json")
	if _, err := bad.build(reg); err == nil {
		t.Error("missing policy file accepted, want error")
	}
}
