package actuator

import (
	"context"
	"errors"

	"atm/internal/resilience"
)

// ResilientConfig parameterizes NewResilientBackend. Zero values
// select the resilience package defaults.
type ResilientConfig struct {
	// Retry is the per-call retry policy. Its Retryable hook defaults
	// to the actuator classification (transient errors retry, terminal
	// 4xx and an open breaker fail fast).
	Retry resilience.Policy
	// Breaker is the per-daemon circuit breaker config. Name defaults
	// to the backend's endpoint (the client's base URL) or, failing
	// that, its family name; Failure defaults to IsRetryable so
	// terminal responses — proof the target is alive — never trip the
	// circuit.
	Breaker resilience.BreakerConfig
}

// Resilient decorates any actuation Backend with retry/backoff and a
// circuit breaker, presenting the same Backend interface. Controllers
// hold one Resilient per actuation target, so a flapping daemon trips
// only its own breaker while the rest of the fleet actuates normally.
type Resilient struct {
	b       Backend
	policy  resilience.Policy
	breaker *resilience.Breaker
}

// NewResilientBackend wraps any Backend. The zero ResilientConfig
// gives 4 attempts with 50ms–2s full-jitter backoff and a breaker
// that opens after 5 consecutive transient failures.
func NewResilientBackend(b Backend, cfg ResilientConfig) *Resilient {
	p := cfg.Retry
	if p.Retryable == nil {
		p.Retryable = func(err error) bool {
			return IsRetryable(err) && !errors.Is(err, resilience.ErrOpen)
		}
	}
	bc := cfg.Breaker
	if bc.Name == "" {
		caps := b.Capabilities()
		bc.Name = caps.Endpoint
		if bc.Name == "" {
			bc.Name = caps.Name
		}
	}
	if bc.Failure == nil {
		bc.Failure = IsRetryable
	}
	return &Resilient{b: b, policy: p, breaker: resilience.NewBreaker(bc)}
}

// Breaker exposes the underlying circuit breaker for state inspection.
func (r *Resilient) Breaker() *resilience.Breaker { return r.breaker }

// Capabilities forwards the wrapped backend's descriptor: resilience
// changes delivery, never semantics.
func (r *Resilient) Capabilities() Capabilities { return r.b.Capabilities() }

// do routes one operation through retry → breaker → backend. The
// breaker sits inside the retry loop so every attempt feeds its state
// machine, and an open circuit fails the whole call fast (ErrOpen is
// not retryable under the default policy).
func (r *Resilient) do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	return resilience.Retry(ctx, r.policy, op, func(ctx context.Context) error {
		return r.breaker.Do(ctx, fn)
	})
}

// SetLimits creates or updates a group's limits, with retries.
func (r *Resilient) SetLimits(ctx context.Context, id string, l Limits) error {
	return r.do(ctx, "set_limits", func(ctx context.Context) error {
		return r.b.SetLimits(ctx, id, l)
	})
}

// GetLimits reads a group's limits, with retries. A missing group is
// terminal and surfaces as ErrNotFound immediately.
func (r *Resilient) GetLimits(ctx context.Context, id string) (Limits, error) {
	var out Limits
	err := r.do(ctx, "get_limits", func(ctx context.Context) error {
		l, err := r.b.GetLimits(ctx, id)
		out = l
		return err
	})
	if err != nil {
		return Limits{}, err
	}
	return out, nil
}

// DeleteGroup removes a group, with retries.
func (r *Resilient) DeleteGroup(ctx context.Context, id string) error {
	return r.do(ctx, "delete_group", func(ctx context.Context) error {
		return r.b.DeleteGroup(ctx, id)
	})
}

var _ Backend = (*Resilient)(nil)
