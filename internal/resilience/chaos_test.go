package resilience

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// ErrInjected marks transport faults synthesized by ChaosTransport, so
// tests can tell an injected failure from a genuine one.
var ErrInjected = errors.New("resilience: injected fault")

// ChaosConfig parameterizes deterministic fault injection. All
// probabilities are evaluated independently per request, in the order
// drop, 5xx, reset, delay (the first match wins for the terminal
// faults; delay composes with a successful pass-through).
type ChaosConfig struct {
	// Seed fixes the fault schedule; the same seed and request order
	// reproduce the same faults.
	Seed int64
	// DropProb is the probability the request is never sent: the
	// caller sees a connection reset and the daemon state is
	// untouched.
	DropProb float64
	// Err5xxProb is the probability the request is answered with a
	// synthetic 503 without reaching the daemon.
	Err5xxProb float64
	// ResetProb is the probability the request is sent but its
	// response is dropped: the daemon may have applied the mutation
	// even though the caller sees a failure — the case that forces
	// idempotent actuation.
	ResetProb float64
	// DelayProb and Delay inject latency before an otherwise normal
	// round trip.
	DelayProb float64
	Delay     time.Duration
}

// ChaosTransport is a seeded http.RoundTripper that injects drops,
// synthetic 5xx responses, post-send connection resets and delays in
// front of a base transport. It is safe for concurrent use, though a
// deterministic fault schedule additionally requires a deterministic
// request order (drive it from a sequential loop in tests).
type ChaosTransport struct {
	base http.RoundTripper
	cfg  ChaosConfig

	mu       sync.Mutex
	rng      *rand.Rand
	calls    int
	injected map[string]int
}

// NewChaosTransport wraps base (nil selects http.DefaultTransport).
func NewChaosTransport(base http.RoundTripper, cfg ChaosConfig) *ChaosTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &ChaosTransport{
		base:     base,
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x9e3779b97f4a7c15)),
		injected: make(map[string]int),
	}
}

// draw rolls all fault classes for one request under the lock, so each
// request consumes a fixed number of random variates regardless of
// which faults fire — keeping the schedule aligned across runs.
func (t *ChaosTransport) draw() (drop, err5xx, reset, delay bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	drop = t.rng.Float64() < t.cfg.DropProb
	err5xx = t.rng.Float64() < t.cfg.Err5xxProb
	reset = t.rng.Float64() < t.cfg.ResetProb
	delay = t.rng.Float64() < t.cfg.DelayProb
	return
}

// count records one injected fault.
func (t *ChaosTransport) count(kind string) {
	t.mu.Lock()
	t.injected[kind]++
	t.mu.Unlock()
}

// Stats returns the total request count and a copy of the per-kind
// injected fault counts.
func (t *ChaosTransport) Stats() (calls int, injected map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.injected))
	for k, v := range t.injected {
		out[k] = v
	}
	return t.calls, out
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, err5xx, reset, delay := t.draw()
	if drop {
		t.count("drop")
		closeBody(req)
		return nil, fmt.Errorf("chaos: connection reset before send to %s: %w", req.URL.Host, ErrInjected)
	}
	if err5xx {
		t.count("5xx")
		closeBody(req)
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("chaos: injected 503")),
			Request:    req,
		}, nil
	}
	if delay && t.cfg.Delay > 0 {
		t.count("delay")
		select {
		case <-req.Context().Done():
			closeBody(req)
			return nil, req.Context().Err()
		case <-time.After(t.cfg.Delay):
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if reset {
		t.count("reset")
		// The daemon handled the request; the caller never learns.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: connection reset awaiting response from %s: %w", req.URL.Host, ErrInjected)
	}
	return resp, nil
}

// closeBody honors the RoundTripper contract: the request body must be
// closed even when the transport errors before sending.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// chaosServer is a daemon stand-in counting the requests that actually
// reach it.
func chaosServer(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func chaosGet(t *testing.T, client *http.Client, url string) (int, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func TestChaosTransportDeterministic(t *testing.T) {
	run := func() (map[string]int, []int) {
		srv, _ := chaosServer(t)
		ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{
			Seed: 99, DropProb: 0.2, Err5xxProb: 0.2, ResetProb: 0.1,
		})
		client := &http.Client{Transport: ct}
		var codes []int
		for i := 0; i < 50; i++ {
			code, err := chaosGet(t, client, srv.URL)
			if err != nil {
				code = -1
			}
			codes = append(codes, code)
		}
		_, injected := ct.Stats()
		return injected, codes
	}
	inj1, codes1 := run()
	inj2, codes2 := run()
	if len(inj1) == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
	if fmt.Sprint(inj1) != fmt.Sprint(inj2) {
		t.Fatalf("fault mix not deterministic: %v vs %v", inj1, inj2)
	}
	for i := range codes1 {
		if codes1[i] != codes2[i] {
			t.Fatalf("call %d outcome differs: %d vs %d", i, codes1[i], codes2[i])
		}
	}
}

func TestChaosTransportAll5xx(t *testing.T) {
	srv, hits := chaosServer(t)
	ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 1, Err5xxProb: 1})
	client := &http.Client{Transport: ct}
	for i := 0; i < 10; i++ {
		code, err := chaosGet(t, client, srv.URL)
		if err != nil || code != http.StatusServiceUnavailable {
			t.Fatalf("call %d: code=%d err=%v, want synthetic 503", i, code, err)
		}
	}
	if *hits != 0 {
		t.Fatalf("server saw %d requests, want 0 (5xx is synthesized client-side)", *hits)
	}
}

func TestChaosTransportDropNeverReachesServer(t *testing.T) {
	srv, hits := chaosServer(t)
	ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 2, DropProb: 1})
	client := &http.Client{Transport: ct}
	_, err := client.Get(srv.URL)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if *hits != 0 {
		t.Fatalf("server saw %d requests, want 0", *hits)
	}
}

func TestChaosTransportResetReachesServer(t *testing.T) {
	// A reset fault is the dangerous one: the daemon applies the
	// request, the caller sees a failure.
	srv, hits := chaosServer(t)
	ct := NewChaosTransport(srv.Client().Transport, ChaosConfig{Seed: 3, ResetProb: 1})
	client := &http.Client{Transport: ct}
	_, err := client.Get(srv.URL)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if *hits != 1 {
		t.Fatalf("server saw %d requests, want 1 (reset happens after send)", *hits)
	}
}
