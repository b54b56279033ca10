package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/actuator"
	"atm/internal/trace"
)

// countingDaemon serves the real cgroup API while counting mutating
// requests (PUT/DELETE) separately from reads — the HTTP-level proof
// that a dry run never writes.
func countingDaemon(t *testing.T) (*httptest.Server, *atomic.Int64, *actuator.Registry) {
	t.Helper()
	reg := actuator.NewRegistry()
	var writes atomic.Int64
	inner := reg.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut || r.Method == http.MethodDelete {
			writes.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &writes, reg
}

func applyTrace() *trace.Trace {
	return trace.Generate(trace.GenConfig{
		Boxes: 2, Days: 3, SamplesPerDay: 16, Seed: 5, GapFraction: 1e-9,
	})
}

func runApply(t *testing.T, o applyOpts) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := applyMain(applyTrace(), o, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestApplyCleanRound pushes a healthy trace into a healthy daemon:
// exit 0 and one cgroup per VM.
func TestApplyCleanRound(t *testing.T) {
	srv, writes, reg := countingDaemon(t)
	code, stdout, stderr := runApply(t, applyOpts{
		daemon: srv.URL, retries: 3, breakerThreshold: 100, timeout: time.Minute, threshold: 0.6,
	})
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitOK, stdout, stderr)
	}
	if writes.Load() == 0 || len(reg.Snapshot()) == 0 {
		t.Fatalf("clean apply wrote nothing (writes=%d, cgroups=%d)", writes.Load(), len(reg.Snapshot()))
	}
	if !strings.Contains(stdout, "applied 2/2 boxes") {
		t.Errorf("summary missing: %q", stdout)
	}
}

// TestApplyDryRunZeroWrites is the counting-backend smoke check behind
// `make whatif`: -dry-run must print per-box plans and leave the
// daemon's mutating-request counter at exactly zero.
func TestApplyDryRunZeroWrites(t *testing.T) {
	srv, writes, reg := countingDaemon(t)
	code, stdout, stderr := runApply(t, applyOpts{
		daemon: srv.URL, retries: 3, breakerThreshold: 100, timeout: time.Minute, threshold: 0.6,
		dryRun: true,
	})
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitOK, stdout, stderr)
	}
	if n := writes.Load(); n != 0 {
		t.Fatalf("dry run issued %d mutating requests, want 0", n)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatalf("dry run created cgroups: %v", reg.Snapshot())
	}
	if !strings.Contains(stdout, "nothing written") {
		t.Errorf("dry-run summary missing: %q", stdout)
	}
}

// TestApplyPolicyRails runs a real apply under a max-CPU clamp policy:
// everything the daemon records must respect the rail.
func TestApplyPolicyRails(t *testing.T) {
	srv, _, reg := countingDaemon(t)
	const maxCPU = 0.25
	pf := filepath.Join(t.TempDir(), "rails.json")
	if err := os.WriteFile(pf, []byte(`{"rules":[{"match":"*","max_cpu_ghz":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runApply(t, applyOpts{
		daemon: srv.URL, retries: 3, breakerThreshold: 100, timeout: time.Minute, threshold: 0.6,
		policyFile: pf,
	})
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitOK, stdout, stderr)
	}
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no cgroups written")
	}
	for id, l := range snap {
		if l.CPUGHz > maxCPU {
			t.Errorf("%s: cpu %v exceeds policy rail %v", id, l.CPUGHz, maxCPU)
		}
	}
}

// TestApplyPartialExitCode seeds a daemon that starts refusing writes
// partway: boxes that fail mid-push roll back atomically and apply
// reports the distinct partial/failed statuses with a one-line
// summary.
func TestApplyPartialExitCode(t *testing.T) {
	reg := actuator.NewRegistry()
	inner := reg.Handler()
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			// Let the first box's VMs through, then reject every later
			// write with a terminal 400 so retries cannot save it.
			if puts.Add(1) > 2 {
				http.Error(w, "quota exhausted", http.StatusBadRequest)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	code, stdout, stderr := runApply(t, applyOpts{
		daemon: srv.URL, retries: 2, breakerThreshold: 1000, timeout: time.Minute, threshold: 0.6,
	})
	// Every partially-pushed box must roll back clean (deletes are
	// still allowed), so this is the partial band, not a hard failure.
	if code != exitPartial {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitPartial, stdout, stderr)
	}
	if !strings.Contains(stderr, "apply partial") {
		t.Errorf("missing one-line partial summary on stderr: %q", stderr)
	}
}

// TestApplyUsageErrors pins exit 2 for operator mistakes.
func TestApplyUsageErrors(t *testing.T) {
	if code, _, _ := runApply(t, applyOpts{timeout: time.Minute}); code != exitUsage {
		t.Errorf("missing -daemon: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runApply(t, applyOpts{daemon: "not-a-url", timeout: time.Minute}); code != exitUsage {
		t.Errorf("bad daemon URL: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runApply(t, applyOpts{
		daemon: "http://localhost:1", policyFile: "/nonexistent/rails.json", timeout: time.Minute,
	}); code != exitUsage {
		t.Errorf("unreadable policy: exit %d, want %d", code, exitUsage)
	}
}
