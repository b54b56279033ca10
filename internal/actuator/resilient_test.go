package actuator

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"atm/internal/obs"
	"atm/internal/resilience"
)

// fastRetry is a test retry policy that never really sleeps.
func fastRetry(attempts int) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: attempts,
		Seed:        1,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

func TestNewClientNormalizesTrailingSlash(t *testing.T) {
	for _, base := range []string{"http://h:8023", "http://h:8023/", "http://h:8023//"} {
		c := mustClient(t, base, nil)
		if got, want := c.groupURL("vm-1"), "http://h:8023/cgroups/vm-1"; got != want {
			t.Errorf("NewClient(%q).groupURL = %q, want %q", base, got, want)
		}
	}
}

func TestNewClientValidatesBaseURL(t *testing.T) {
	cases := []struct {
		name string
		base string
	}{
		{"empty", ""},
		{"whitespace", "   "},
		{"no_scheme", "hypervisor-7:8080"},
		{"bare_host", "hypervisor-7"},
		{"wrong_scheme", "ftp://hypervisor-7:8080"},
		{"scheme_only", "http://"},
		{"unparseable", "http://h:8080/%zz\x7f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if c, err := NewClient(tc.base, nil); err == nil {
				t.Errorf("NewClient(%q) = %+v, want error", tc.base, c)
			}
		})
	}
	if _, err := NewClient("https://hypervisor-7:8080", nil); err != nil {
		t.Errorf("NewClient(valid https) = %v, want nil", err)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"transport", &Error{Op: "set_limits", ID: "vm", Err: errors.New("connection refused")}, true},
		{"500", &Error{Op: "set_limits", ID: "vm", Status: 500, Err: errors.New("boom")}, true},
		{"503", &Error{Op: "set_limits", ID: "vm", Status: 503, Err: errors.New("restarting")}, true},
		{"429", &Error{Op: "set_limits", ID: "vm", Status: 429, Err: errors.New("slow down")}, true},
		{"400", &Error{Op: "set_limits", ID: "vm", Status: 400, Err: errors.New("bad limits")}, false},
		{"404", &Error{Op: "get_limits", ID: "vm", Status: 404, Err: ErrNotFound}, false},
		{"canceled transport", &Error{Op: "set_limits", ID: "vm", Err: context.Canceled}, false},
	}
	for _, tc := range cases {
		if got := errors.Is(tc.err, ErrTransient); got != tc.transient {
			t.Errorf("%s: Is(ErrTransient) = %v, want %v", tc.name, got, tc.transient)
		}
		if got := errors.Is(tc.err, ErrTerminal); got == tc.transient {
			t.Errorf("%s: Is(ErrTerminal) = %v, want %v", tc.name, got, !tc.transient)
		}
		if got := IsRetryable(tc.err); got != tc.transient {
			t.Errorf("%s: IsRetryable = %v, want %v", tc.name, got, tc.transient)
		}
	}
	// Unknown (non-actuator) errors default to retryable except
	// cancellation.
	if !IsRetryable(errors.New("mystery")) {
		t.Error("unknown error not retryable")
	}
	if IsRetryable(context.Canceled) {
		t.Error("cancellation retryable")
	}
}

func TestClientTypedErrors(t *testing.T) {
	c, _ := newTestDaemon(t)
	ctx := context.Background()
	// 404 on Get: terminal, still matches ErrNotFound.
	_, err := c.GetLimits(ctx, "missing")
	if !errors.Is(err, ErrNotFound) || !errors.Is(err, ErrTerminal) {
		t.Errorf("404 err = %v, want ErrNotFound and ErrTerminal", err)
	}
	// 400 on Set: terminal.
	if err := c.SetLimits(ctx, "vm", Limits{CPUGHz: -1, RAMGB: 1}); !errors.Is(err, ErrTerminal) {
		t.Errorf("400 err = %v, want ErrTerminal", err)
	}
	// Dead server: transient transport error.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := mustClient(t, srv.URL, srv.Client())
	srv.Close()
	if err := dead.SetLimits(ctx, "vm", Limits{CPUGHz: 1, RAMGB: 1}); !errors.Is(err, ErrTransient) {
		t.Errorf("transport err = %v, want ErrTransient", err)
	}
}

// flakyDaemon serves the registry API but fails the first failN
// requests with 503.
func flakyDaemon(t *testing.T, failN int) (*httptest.Server, *Registry, *int) {
	t.Helper()
	reg := NewRegistry()
	api := reg.Handler()
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= failN {
			http.Error(w, "simulated daemon restart", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, reg, &calls
}

func TestResilientRetriesTransient(t *testing.T) {
	srv, reg, calls := flakyDaemon(t, 2)
	rc := NewResilientBackend(mustClient(t, srv.URL, srv.Client()), ResilientConfig{
		Retry:   fastRetry(4),
		Breaker: resilience.BreakerConfig{Name: "t-resilient-retry", FailureThreshold: 10},
	})
	if err := rc.SetLimits(context.Background(), "vm-1", Limits{CPUGHz: 2, RAMGB: 4}); err != nil {
		t.Fatalf("SetLimits through flaky daemon: %v", err)
	}
	if *calls != 3 {
		t.Errorf("daemon saw %d calls, want 3 (two 503s then success)", *calls)
	}
	if l, err := reg.Get("vm-1"); err != nil || l.CPUGHz != 2 {
		t.Errorf("registry state = %+v, %v", l, err)
	}
}

func TestResilientTerminalNotRetried(t *testing.T) {
	// A daemon that rejects every request as malformed: the 400 must
	// reach the caller after exactly one attempt.
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	rc := NewResilientBackend(mustClient(t, srv.URL, srv.Client()), ResilientConfig{
		Retry:   fastRetry(5),
		Breaker: resilience.BreakerConfig{Name: "t-resilient-terminal"},
	})
	err := rc.SetLimits(context.Background(), "vm-1", Limits{CPUGHz: 2, RAMGB: 4})
	if !errors.Is(err, ErrTerminal) {
		t.Fatalf("err = %v, want terminal", err)
	}
	if calls != 1 {
		t.Errorf("daemon saw %d calls, want 1 (4xx must not be retried)", calls)
	}

	// Invalid limits never even reach the daemon: the client rejects
	// them terminally before building a request.
	before := calls
	if err := rc.SetLimits(context.Background(), "vm-1", Limits{CPUGHz: -5, RAMGB: 4}); !errors.Is(err, ErrTerminal) {
		t.Fatalf("invalid limits err = %v, want terminal", err)
	}
	if calls != before {
		t.Errorf("invalid limits reached the daemon (%d calls)", calls-before)
	}
}

func TestResilientBreakerLifecycle(t *testing.T) {
	// A daemon that is down, then recovers: the breaker must open
	// after the threshold, short-circuit while open, and recover
	// through a half-open probe — with the state visible on /metrics.
	reg := NewRegistry()
	api := reg.Handler()
	var mu sync.Mutex
	down := true
	serverCalls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		serverCalls++
		d := down
		mu.Unlock()
		if d {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	clock := time.Unix(0, 0)
	var clockMu sync.Mutex
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	advance := func(d time.Duration) { clockMu.Lock(); clock = clock.Add(d); clockMu.Unlock() }

	rc := NewResilientBackend(mustClient(t, srv.URL, srv.Client()), ResilientConfig{
		Retry: fastRetry(3),
		Breaker: resilience.BreakerConfig{
			Name: "t-lifecycle", FailureThreshold: 3, OpenTimeout: 30 * time.Second, Now: now,
		},
	})
	ctx := context.Background()
	l := Limits{CPUGHz: 1, RAMGB: 1}

	// 3 attempts, all 503 → breaker opens mid-call.
	if err := rc.SetLimits(ctx, "vm", l); err == nil {
		t.Fatal("want failure against down daemon")
	}
	if got := rc.Breaker().State(); got != resilience.StateOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	// While open: calls short-circuit without reaching the daemon, and
	// ErrOpen is terminal for the retry loop (exactly one giveup).
	mu.Lock()
	before := serverCalls
	mu.Unlock()
	if err := rc.SetLimits(ctx, "vm", l); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open-circuit err = %v, want ErrOpen", err)
	}
	mu.Lock()
	if serverCalls != before {
		t.Errorf("open breaker leaked %d calls to the daemon", serverCalls-before)
	}
	down = false
	mu.Unlock()

	// After the open timeout, the half-open probe succeeds and closes
	// the circuit.
	advance(time.Minute)
	if err := rc.SetLimits(ctx, "vm", l); err != nil {
		t.Fatalf("recovery call: %v", err)
	}
	if got := rc.Breaker().State(); got != resilience.StateClosed {
		t.Fatalf("breaker state = %v, want closed", got)
	}

	// The acceptance surface: breaker state and retry attempts are on
	// the Prometheus exposition every daemon serves.
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`atm_breaker_state{name="t-lifecycle"} 0`,
		`atm_breaker_trips_total{name="t-lifecycle"}`,
		`atm_retry_attempts_total{op="set_limits"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestLimitsValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		l    Limits
		ok   bool
	}{
		{"valid", Limits{CPUGHz: 1, RAMGB: 2}, true},
		{"zero cpu", Limits{CPUGHz: 0, RAMGB: 2}, false},
		{"zero ram", Limits{CPUGHz: 1, RAMGB: 0}, false},
		{"negative cpu", Limits{CPUGHz: -1, RAMGB: 2}, false},
		{"negative ram", Limits{CPUGHz: 1, RAMGB: -2}, false},
		{"NaN cpu", Limits{CPUGHz: math.NaN(), RAMGB: 2}, false},
		{"NaN ram", Limits{CPUGHz: 1, RAMGB: math.NaN()}, false},
		{"+Inf cpu", Limits{CPUGHz: math.Inf(1), RAMGB: 2}, false},
		{"-Inf ram", Limits{CPUGHz: 1, RAMGB: math.Inf(-1)}, false},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// And the registry path enforces it.
	r := NewRegistry()
	if err := r.Set("vm", Limits{CPUGHz: math.NaN(), RAMGB: 1}); err == nil {
		t.Error("registry accepted NaN limits")
	}
}
