// Package resilience provides the fault-tolerance primitives the
// actuation path runs on. The paper's ATM loop pushes one day of
// MCKP-chosen limits to a cgroup daemon on every hypervisor (Section
// V); at fleet scale some daemons are always slow, flapping or
// mid-restart, so the controller treats every daemon call as a retried
// operation behind a per-daemon circuit breaker instead of assuming it
// lands. The package is generic — it knows nothing about the actuator
// protocol beyond an error-classification hook. Its tests drive it
// through a seeded fault-injecting transport, so the retry/breaker
// behavior is proven rather than asserted in prose.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"atm/internal/obs"
)

// Retry metrics: attempts by operation plus terminal/exhausted
// give-ups. attempts/op across scrapes minus call volume is the live
// transient-fault rate of the actuation plane.
var (
	retryAttempts = obs.Default().CounterVec("atm_retry_attempts_total",
		"Attempts made under resilience.Retry, by operation.", "op")
	retryGiveups = obs.Default().CounterVec("atm_retry_giveups_total",
		"Retry loops that gave up, by operation and reason (terminal|exhausted|canceled).", "op", "reason")
)

// Policy parameterizes Retry. The zero value selects the defaults
// noted per field.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first
	// call (default 4).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry
	// (default 50ms). Actual delays draw uniformly from [0, ceiling]
	// — "full jitter" — so a fleet of controllers retrying against
	// one recovering daemon does not stampede in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the ceiling per retry (default 2).
	Multiplier float64
	// AttemptTimeout bounds each attempt with its own context
	// deadline; 0 leaves the caller's context alone.
	AttemptTimeout time.Duration
	// Retryable classifies errors: false stops the loop immediately
	// and surfaces the error as-is. Nil retries everything except
	// context cancellation.
	Retryable func(error) bool
	// Seed makes the jitter sequence deterministic for tests; 0 draws
	// from a process-global source.
	Seed int64
	// Sleep replaces the inter-attempt wait, letting tests record
	// delays instead of serving them. Nil sleeps for real (honoring
	// ctx cancellation).
	Sleep func(ctx context.Context, d time.Duration) error
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Retryable == nil {
		p.Retryable = func(err error) bool { return !errors.Is(err, context.Canceled) }
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs fn until it succeeds, returns a non-retryable error, the
// attempt budget is exhausted, or ctx is done. op labels the attempt
// metrics (use one stable name per call site, e.g. "set_limits").
// Exhaustion wraps the last error, so errors.Is/As still reach the
// cause; terminal errors are returned unwrapped.
func Retry(ctx context.Context, p Policy, op string, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewPCG(uint64(p.Seed), uint64(p.Seed)))
	}
	ceiling := p.BaseDelay
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			retryGiveups.With(op, "canceled").Inc()
			if last != nil {
				return errors.Join(err, last)
			}
			return err
		}
		retryAttempts.With(op).Inc()
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		last = err
		if !p.Retryable(err) {
			retryGiveups.With(op, "terminal").Inc()
			return err
		}
		if attempt >= p.MaxAttempts {
			retryGiveups.With(op, "exhausted").Inc()
			return fmt.Errorf("resilience: %s failed after %d attempts: %w", op, attempt, err)
		}
		d := jitter(rng, ceiling)
		if ceiling = time.Duration(float64(ceiling) * p.Multiplier); ceiling > p.MaxDelay {
			ceiling = p.MaxDelay
		}
		if err := p.Sleep(ctx, d); err != nil {
			retryGiveups.With(op, "canceled").Inc()
			return errors.Join(err, last)
		}
	}
}

// jitter draws uniformly from [0, ceiling] ("full jitter" backoff).
func jitter(rng *rand.Rand, ceiling time.Duration) time.Duration {
	if ceiling <= 0 {
		return 0
	}
	if rng == nil {
		return time.Duration(rand.Int64N(int64(ceiling) + 1))
	}
	return time.Duration(rng.Int64N(int64(ceiling) + 1))
}
